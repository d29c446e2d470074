package event

import "sort"

// Watermark machinery for the ingest session: per-node low watermarks over
// local clocks, and a pending store that holds packet rows only until the
// watermark proves them complete, then retires them into a window
// sub-collection and compacts the storage in place. Retained rows are
// therefore proportional to the in-flight packet population, not to the total
// volume ever ingested.
//
// The watermark contract mirrors the repo-wide log assumption (per-node logs
// are append-only and locally ordered): a node whose watermark stands at w
// will never append another row with a local timestamp below w. Rows raise
// it, and so does punctuation: a silent source, or a snapshot feeder at a
// window's cut, saying it has nothing more below some time. Completeness of a
// packet additionally needs a bound on how far apart two rows about the SAME
// packet can be stamped — cross-node clock skew plus in-network packet
// lifetime — which the caller supplies as a horizon when retiring.

// Watermarks tracks the low watermark of every node seen so far: the highest
// local timestamp each node has appended. The effective (collection-wide)
// watermark is the minimum over all tracked nodes — no tracked node can
// produce a row below it.
type Watermarks struct {
	m map[NodeID]int64
}

// NewWatermarks returns an empty watermark table.
func NewWatermarks() *Watermarks {
	return &Watermarks{m: make(map[NodeID]int64)}
}

// Observe raises node n's watermark to t (no-op when t is not an advance).
// First observation registers the node.
func (w *Watermarks) Observe(n NodeID, t int64) {
	if cur, ok := w.m[n]; !ok || t > cur {
		w.m[n] = t
	}
}

// Node returns n's watermark and whether n has been observed.
func (w *Watermarks) Node(n NodeID) (int64, bool) {
	t, ok := w.m[n]
	return t, ok
}

// Low returns the effective watermark — the minimum over every observed
// node — and false when no node has been observed yet.
func (w *Watermarks) Low() (int64, bool) {
	first := true
	low := int64(0)
	//refill:allow maprange — commutative min; order-independent
	for _, t := range w.m {
		if first || t < low {
			low, first = t, false
		}
	}
	return low, !first
}

// Len returns the number of observed nodes.
func (w *Watermarks) Len() int { return len(w.m) }

// Nodes returns the observed nodes in ascending order.
func (w *Watermarks) Nodes() []NodeID {
	nodes := make([]NodeID, 0, len(w.m))
	//refill:allow maprange — key collection; the sort below imposes the order
	for n := range w.m {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// PendingStore holds the unretired packet rows of its owner, the ingest
// session: one batch per logging node, in append (= log) order. Each
// in-flight packet is interned once, at its first row, into a dense slot
// that holds its last-seen local timestamp; every row carries its packet's
// slot in a column beside the seven event columns, so retirement tests rows
// by index and touches the intern map once per packet, never per row. It is
// driven single-threaded under the session's lock and never handed across a
// goroutine boundary.
//
//refill:owned
type PendingStore struct {
	logs map[NodeID]*pendingLog
	// cur is the node the last Append or Reserve named: a fragment's rows
	// all name it, so they skip the node lookup.
	cur   *pendingLog
	ids   map[PacketID]int32 // in-flight packet -> its slot
	slots []packetSlot
	free  []int32 // retired slots, reused before slots grows
	rows  int
}

// pendingLog is one node's buffered rows and, per row, its packet's slot.
type pendingLog struct {
	node NodeID
	b    Batch
	slot []int32
	// prev is the slot of the packet this node's last row was about, or -1:
	// a row about the same packet (most are) skips the intern lookup. retire
	// clears it, since a retired slot may come back for another packet.
	prev int32
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
	return &PendingStore{logs: make(map[NodeID]*pendingLog), ids: make(map[PacketID]int32)}
}

// node returns n's log, creating it on first use, and makes it current.
func (ps *PendingStore) node(n NodeID) *pendingLog {
	if l := ps.cur; l != nil && l.node == n {
		return l
	}
	l := ps.logs[n]
	if l == nil {
		l = &pendingLog{node: n, prev: -1}
		ps.logs[n] = l
	}
	ps.cur = l
	return l
}

// Reserve makes room for rows more rows at node n in one step, so a
// fragment's appends do not regrow the node's eight columns one doubling at
// a time.
func (ps *PendingStore) Reserve(n NodeID, rows int) {
	l := ps.node(n)
	l.b.reserve(rows)
	l.slot = grown(l.slot, cap(l.b.time))
}

// Append buffers one packet-scoped event logged at node n. Non-packet
// events (server up/down) are the caller's to keep — they are never
// retirable per packet.
func (ps *PendingStore) Append(n NodeID, e Event) {
	l := ps.node(n)
	s := l.prev
	if s < 0 || ps.slots[s].id != e.Packet {
		s = ps.intern(e.Packet, e.Time)
		l.prev = s
	}
	if sl := &ps.slots[s]; e.Time > sl.last {
		sl.last = e.Time
	}
	l.b.Append(e)
	l.slot = append(l.slot, s)
	ps.rows++
}

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
// log order — the checkpoint layout. Replaying the result through Append
// rebuilds the store exactly.
func (ps *PendingStore) AppendPendingTo(dst *Collection) {
	//refill:allow maprange — each node's rows land in that node's own dst log; node order is immaterial
	for n, pl := range ps.logs {
		b := &pl.b
		if b.Len() == 0 {
			continue
		}
		l := dst.Log(n)
		for r := 0; r < b.Len(); r++ {
			l.Append(b.At(r))
		}
	}
}

// RetireAll moves every buffered packet out of the store and into dst — the
// final retirement of a session drain, when every row has been fed and
// nothing can still be incomplete. No
// timestamp is consulted, so a packet stamped math.MaxInt64 — which no strict
// cutoff can ever clear — leaves with the rest. Returns the number of packets
// retired.
func (ps *PendingStore) RetireAll(dst *Collection) int { return ps.retire(0, true, dst) }

// RetireComplete moves every packet whose rows are provably complete — last
// seen strictly below cutoff, where the caller has already folded its skew
// horizon into cutoff — out of the store and into dst, compacting the
// retained storage. Returns the number of packets retired.
func (ps *PendingStore) RetireComplete(cutoff int64, dst *Collection) int {
	return ps.retire(cutoff, false, dst)
}

// retire frees the retiring packets' slots — all of them, or those last seen
// below cutoff — and drops each from the intern map, then walks each node's
// rows once: a row whose slot is no longer live moves to dst, the rest slide
// down over the holes. A row costs a slot-column read, no map operation. An
// advance that completes nothing returns before touching a row.
//
// Per-packet per-node row order is all the downstream partitioner depends
// on; the cross-packet interleave inside dst's per-node logs is free to
// differ from the original logs because no PacketView ever spans packets.
func (ps *PendingStore) retire(cutoff int64, all bool, dst *Collection) int {
	free := len(ps.free)
	for s := range ps.slots {
		if sl := &ps.slots[s]; sl.live && (all || sl.last < cutoff) {
			sl.live = false
			delete(ps.ids, sl.id)
			ps.free = append(ps.free, int32(s))
		}
	}
	retired := len(ps.free) - free
	if retired == 0 {
		return 0
	}
	//refill:allow maprange — per-node compaction; each node's rows land in that node's own dst log, so node order is immaterial
	for n, pl := range ps.logs {
		pl.prev = -1
		moved := 0
		for _, s := range pl.slot {
			if !ps.slots[s].live {
				moved++
			}
		}
		if moved == 0 {
			continue
		}
		l := dst.Log(n)
		l.batch.reserve(moved)
		b := &pl.b
		w := 0
		for i, s := range pl.slot {
			if !ps.slots[s].live {
				l.Append(b.At(i))
				if b.info != nil {
					delete(b.info, int32(i))
				}
				continue
			}
			if w != i {
				b.node[w] = b.node[i]
				b.typ[w] = b.typ[i]
				b.sender[w] = b.sender[i]
				b.receiver[w] = b.receiver[i]
				b.origin[w] = b.origin[i]
				b.seq[w] = b.seq[i]
				b.time[w] = b.time[i]
				pl.slot[w] = s
				if b.info != nil {
					if inf, ok := b.info[int32(i)]; ok {
						b.info[int32(w)] = inf
						delete(b.info, int32(i))
					}
				}
			}
			w++
		}
		ps.rows -= moved
		b.Resize(w)
		pl.slot = pl.slot[:w]
	}
	return retired
}
