package event

import (
	"cmp"
	"math"
	"slices"
)

// Watermark machinery for the ingest session: a pending store that keeps
// each node's low watermark over its local clock beside the node's packet
// rows, holds those rows only until the watermarks prove them complete, then
// retires them straight into packet views and compacts the storage in place.
// Retained rows are therefore proportional to the in-flight packet
// population, not to the total volume ever ingested.
//
// The watermark contract mirrors the repo-wide log assumption (per-node logs
// are append-only and locally ordered): a node whose watermark stands at w
// will never append another row with a local timestamp below w. Rows raise
// it, and so does punctuation: a silent source, or a snapshot feeder at a
// window's cut, saying it has nothing more below some time. Completeness of a
// packet additionally needs a bound on how far apart two rows about the SAME
// packet can be stamped — cross-node clock skew plus in-network packet
// lifetime — which the caller supplies as a horizon when retiring.

// PendingStore is its owner's — the ingest session's — only per-node table.
// Each logging node has one entry, ascending by node, holding the node's
// watermark beside its unretired packet rows in append (= log) order; the
// server up/down rows go to one operational collection, kept for the life of
// the store. Each in-flight packet is interned once, at its first row, into a
// dense slot that holds its last-seen local timestamp; every row carries its
// packet's slot in a column beside the seven event columns, so retirement
// tests rows by index and touches the intern map once per packet, never per
// row. It is driven single-threaded under the session's lock and never
// handed across a goroutine boundary.
//
//refill:owned
type PendingStore struct {
	logs  []*pendingLog      // ascending by node
	ops   *Collection        // server up/down rows, per node in log order
	ids   map[PacketID]int32 // in-flight packet -> its slot
	slots []packetSlot
	free  []int32 // retired slots, reused before slots grows
	rows  int
	// spare is the window RetireAll and RetireComplete retire through.
	spare Window
}

// pendingLog is one node's watermark, buffered rows and, per row, its
// packet's slot.
type pendingLog struct {
	node NodeID
	// wm is the node's watermark: the highest local timestamp it has
	// appended or punctuated, math.MinInt64 until then. It never falls.
	wm   int64
	b    Batch
	slot []int32
	// prev is the slot of the packet this node's last row was about, or -1:
	// a row about the same packet (most are) skips the intern lookup. retire
	// clears it, since a retired slot may come back for another packet.
	prev int32
	out  int // rows of this node the current retire moves out
}

// packetSlot is one in-flight packet: its identity and last-seen timestamp.
// A slot on the free list is not live. No row points at one, except during
// the retire that freed it: that is how the retire tells a row to move.
type packetSlot struct {
	id   PacketID
	last int64
	live bool
}

// NewPendingStore returns an empty store. The argument was an origin-shard
// count and is ignored; it stays only because bench/ calls the constructor
// with one.
func NewPendingStore(int) *PendingStore {
	return &PendingStore{ops: NewCollection(), ids: make(map[PacketID]int32)}
}

// node returns n's entry, registering n on first use.
func (ps *PendingStore) node(n NodeID) *pendingLog {
	i, ok := slices.BinarySearchFunc(ps.logs, n, func(l *pendingLog, n NodeID) int { return cmp.Compare(l.node, n) })
	if !ok {
		ps.logs = slices.Insert(ps.logs, i, &pendingLog{node: n, wm: math.MinInt64, prev: -1})
	}
	return ps.logs[i]
}

// AppendRows takes rows [lo, hi) of src as node n's next log fragment,
// stamped with n, and cuts it at its server up/down rows: each run of packet
// rows is buffered by column (appendRange), each up/down row goes to the
// operational collection. n's watermark rises to the fragment's highest
// timestamp, and a first non-empty fragment registers n. src is only read,
// so it may be read-only, and the store keeps no reference to it.
func (ps *PendingStore) AppendRows(n NodeID, src *Batch, lo, hi int) {
	if lo >= hi {
		return
	}
	l := ps.node(n)
	for lo < hi {
		run := lo
		for run < hi && src.typ[run].PacketScoped() {
			run++
		}
		if run > lo {
			ps.appendRange(l, src, lo, run)
		}
		if run < hi {
			ps.ops.Log(n).Append(src.At(run))
			l.wm = max(l.wm, src.time[run])
		}
		lo = run + 1
	}
}

// appendRange buffers the packet rows [lo, hi) of src in l. Each column is
// copied by one append; then one pass over the packet columns interns each
// row's packet, skipping the lookup while rows stay on the previous row's
// packet, raises its last-seen time and the node's watermark.
func (ps *PendingStore) appendRange(l *pendingLog, src *Batch, lo, hi int) {
	l.b.reserve(hi - lo)
	l.slot = grown(l.slot, cap(l.b.time))
	l.b.appendRange(l.node, src, lo, hi)
	s, high := l.prev, l.wm
	for i := lo; i < hi; i++ {
		id, t := PacketID{Origin: src.origin[i], Seq: src.seq[i]}, src.time[i]
		if s < 0 || ps.slots[s].id != id {
			s = ps.intern(id, t)
		}
		if sl := &ps.slots[s]; t > sl.last {
			sl.last = t
		}
		l.slot = append(l.slot, s)
		high = max(high, t)
	}
	l.prev, l.wm = s, high
	ps.rows += hi - lo
}

// Punctuate says node n has nothing more below t: its watermark rises to t
// (never falls) without a row. A first punctuation registers n, so
// Punctuate(n, math.MinInt64) makes n hold the effective watermark back
// before its first row.
func (ps *PendingStore) Punctuate(n NodeID, t int64) {
	l := ps.node(n)
	l.wm = max(l.wm, t)
}

// Low returns the effective watermark — the minimum over every registered
// node, none of which can append a row below it — and false while no node
// is registered.
func (ps *PendingStore) Low() (int64, bool) {
	if len(ps.logs) == 0 {
		return 0, false
	}
	low := int64(math.MaxInt64)
	for _, l := range ps.logs {
		low = min(low, l.wm)
	}
	return low, true
}

// Watermarks calls f with every registered node and its watermark,
// ascending by node.
func (ps *PendingStore) Watermarks(f func(n NodeID, wm int64)) {
	for _, l := range ps.logs {
		f(l.node, l.wm)
	}
}

// Nodes returns the number of registered nodes.
func (ps *PendingStore) Nodes() int { return len(ps.logs) }

// Operational returns the server up/down rows appended so far, per node in
// log order. The caller must not modify it.
func (ps *PendingStore) Operational() *Collection { return ps.ops }

// intern returns id's slot, taking a free one (or a new one), last seen at
// t, for a packet not yet in flight.
func (ps *PendingStore) intern(id PacketID, t int64) int32 {
	if s, ok := ps.ids[id]; ok {
		return s
	}
	var s int32
	if k := len(ps.free); k > 0 {
		s, ps.free = ps.free[k-1], ps.free[:k-1]
	} else {
		s = int32(len(ps.slots))
		ps.slots = append(ps.slots, packetSlot{})
	}
	ps.slots[s] = packetSlot{id: id, last: t, live: true}
	ps.ids[id] = s
	return s
}

// Rows returns the number of buffered rows.
func (ps *PendingStore) Rows() int { return ps.rows }

// Packets returns the number of in-flight packets.
func (ps *PendingStore) Packets() int { return len(ps.ids) }

// AppendPendingTo copies every buffered row into dst, each node's rows in
// log order — the checkpoint layout. Replaying the result through AppendRows
// rebuilds the buffered rows exactly.
func (ps *PendingStore) AppendPendingTo(dst *Collection) {
	for _, pl := range ps.logs {
		if pl.b.Len() > 0 {
			dst.Log(pl.node).batch.appendRange(pl.node, &pl.b, 0, pl.b.Len())
		}
	}
}

// Window is what a retire hands the engine: the retired packets as views in
// packet-ID order, laid out by Partition's own body over the same rows — one
// packet-shaped arena in view order, each view's rows node by node in
// ascending node order, each node's in log order, one span per node. It
// keeps that body's columns between retires (the sort's key columns live on
// as the arena's link and time), so the views are valid only until the next
// retire into the same Window. A zero Window is ready to use.
//
//refill:owned
type Window struct {
	arena viewArena
	p     partitioner
}

// RetireAll moves every buffered packet out of the store and into dst — the
// final retirement of a session drain, when every row has been fed and
// nothing can still be incomplete. No timestamp is consulted, so a packet
// stamped math.MaxInt64 — which no strict cutoff can ever clear — leaves with
// the rest. Returns the number of packets retired.
func (ps *PendingStore) RetireAll(dst *Collection) int { return ps.retireTo(0, true, dst) }

// RetireComplete moves every packet whose rows are provably complete — last
// seen strictly below cutoff, where the caller has already folded its skew
// horizon into cutoff — out of the store and into dst, compacting the
// retained storage. Returns the number of packets retired.
func (ps *PendingStore) RetireComplete(cutoff int64, dst *Collection) int {
	return ps.retireTo(cutoff, false, dst)
}

// retireTo retires through the store's spare window and appends each view's
// spans to their nodes' logs in dst.
func (ps *PendingStore) retireTo(cutoff int64, all bool, dst *Collection) int {
	views := ps.Retire(&ps.spare, cutoff, all)
	for _, v := range views {
		for _, sp := range v.spans {
			dst.Log(sp.Node).batch.appendView(sp.Node, v.Packet, v.rows, int(sp.Start), int(sp.End))
		}
	}
	return len(views)
}

// Retire moves the retiring packets — all of them when all is set, else
// those last seen strictly below cutoff — out of the store and into w, and
// returns their views: exactly Partition's views over the retired rows, row
// for row and span for span. An advance that completes nothing returns no
// views before touching a row.
//
// It frees the retiring slots and drops each from the intern map. Then a
// scan over the nodes in ascending order, each log in order, gives every
// row whose slot is no longer live its key origin<<32|seq and its global
// row number, as Partition's scan does for a collection of the retired rows
// alone, and Partition's sort, sweep and gathers (group) lay out the views.
// Last, each node's survivors slide down over the holes. A row costs a
// slot-column read and, if it leaves, the sort's and the gathers' work; no
// map operation.
func (ps *PendingStore) Retire(w *Window, cutoff int64, all bool) []*PacketView {
	p := &w.p
	free := len(ps.free)
	for s := range ps.slots {
		if sl := &ps.slots[s]; sl.live && (all || sl.last < cutoff) {
			sl.live = false
			delete(ps.ids, sl.id)
			ps.free = append(ps.free, int32(s))
		}
	}
	if len(ps.free) == free {
		p.views = p.views[:0]
		return p.views
	}

	// The scan. Global row numbers count the rows of the logs that have
	// retiring rows, so a node with none takes no entry in first. keys and
	// rows are sized for every buffered row, as Partition sizes them for
	// every row of the collection.
	checkArenaRows(int64(ps.rows))
	p.arena, p.shares = &w.arena, p.one[:]
	p.keys, p.rows = sized(w.arena.link, ps.rows), sized(p.rows, ps.rows)
	p.keys2 = w.arena.time
	p.nodes, p.logs, p.first = p.nodes[:0], p.logs[:0], append(p.first[:0], 0)
	n, hasInfo := 0, false
	var varying uint64
	var ref int64
	for _, pl := range ps.logs {
		pl.prev = -1
		base, n0 := p.first[len(p.first)-1], n
		for i, s := range pl.slot {
			if sl := &ps.slots[s]; !sl.live {
				k := int64(sl.id.Origin)<<32 | int64(sl.id.Seq)
				if n == 0 {
					ref = k
				}
				p.keys[n], p.rows[n] = k, base+uint32(i)
				varying |= uint64(k ^ ref)
				n++
			}
		}
		if pl.out = n - n0; pl.out > 0 {
			p.nodes, p.logs = append(p.nodes, pl.node), append(p.logs, &pl.b)
			p.first = append(p.first, base+uint32(len(pl.slot)))
			hasInfo = hasInfo || len(pl.b.info) > 0
		}
	}
	p.keys, p.rows = p.keys[:n], p.rows[:n]
	views := p.group(varying, hasInfo)

	for _, pl := range ps.logs {
		if pl.out == 0 {
			continue
		}
		b := &pl.b
		keep := 0
		for i, s := range pl.slot {
			if !ps.slots[s].live {
				if len(b.info) > 0 {
					delete(b.info, int32(i))
				}
				continue
			}
			if keep != i { // the node column needs no move: every row holds pl.node
				b.typ[keep], b.time[keep], pl.slot[keep] = b.typ[i], b.time[i], s
				b.sender[keep], b.receiver[keep] = b.sender[i], b.receiver[i]
				b.origin[keep], b.seq[keep] = b.origin[i], b.seq[i]
				if len(b.info) > 0 {
					if inf, ok := b.info[int32(i)]; ok {
						b.info[int32(keep)] = inf
						delete(b.info, int32(i))
					}
				}
			}
			keep++
		}
		ps.rows -= pl.out
		pl.out = 0
		b.Resize(keep)
		pl.slot = pl.slot[:keep]
	}
	return views
}
