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
// session: one batch per logging node, in append (= log) order, plus every
// in-flight packet's last-seen local timestamp. It is driven single-threaded
// under the session's lock and never handed across a goroutine boundary.
//
//refill:owned
type PendingStore struct {
	logs map[NodeID]*Batch
	last map[PacketID]int64
	rows int
}

// NewPendingStore returns an empty store. The argument was an origin-shard
// count and is ignored; it stays only because bench/ calls the constructor
// with one.
func NewPendingStore(int) *PendingStore {
	return &PendingStore{logs: make(map[NodeID]*Batch), last: make(map[PacketID]int64)}
}

// Append buffers one packet-scoped event logged at node n. Non-packet
// events (server up/down) are the caller's to keep — they are never
// retirable per packet.
func (ps *PendingStore) Append(n NodeID, e Event) {
	b := ps.logs[n]
	if b == nil {
		b = &Batch{}
		ps.logs[n] = b
	}
	b.Append(e)
	if t, ok := ps.last[e.Packet]; !ok || e.Time > t {
		ps.last[e.Packet] = e.Time
	}
	ps.rows++
}

// Rows returns the number of buffered rows.
func (ps *PendingStore) Rows() int { return ps.rows }

// Packets returns the number of in-flight packets.
func (ps *PendingStore) Packets() int { return len(ps.last) }

// AppendPendingTo copies every buffered row into dst, each node's rows in
// log order — the checkpoint layout. Replaying the result through Append
// rebuilds the store exactly.
func (ps *PendingStore) AppendPendingTo(dst *Collection) {
	//refill:allow maprange — each node's rows land in that node's own dst log; node order is immaterial
	for n, b := range ps.logs {
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

// retire drops the retiring packets — all of them, or those last seen below
// cutoff — from the last-seen table, then walks each node's batch once: a row
// whose packet is no longer in the table moves to dst, the rest slide down
// over the holes. An advance that completes nothing returns before touching a
// row.
//
// Per-packet per-node row order is all the downstream partitioner depends
// on; the cross-packet interleave inside dst's per-node logs is free to
// differ from the original logs because no PacketView ever spans packets.
func (ps *PendingStore) retire(cutoff int64, all bool, dst *Collection) int {
	before := len(ps.last)
	if all {
		clear(ps.last)
	} else {
		//refill:allow maprange — map-to-map deletion; no ordered output is produced
		for id, t := range ps.last {
			if t < cutoff {
				delete(ps.last, id)
			}
		}
	}
	retired := before - len(ps.last)
	if retired == 0 {
		return 0
	}
	//refill:allow maprange — per-node compaction; each node's rows land in that node's own dst log, so node order is immaterial
	for n, b := range ps.logs {
		var l *Log
		w := 0
		for i := 0; i < len(b.typ); i++ {
			if _, pending := ps.last[b.Packet(i)]; !pending {
				if l == nil {
					l = dst.Log(n)
				}
				l.Append(b.At(i))
				delete(b.info, int32(i))
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
				if inf, ok := b.info[int32(i)]; ok {
					b.info[int32(w)] = inf
					delete(b.info, int32(i))
				}
			}
			w++
		}
		ps.rows -= len(b.typ) - w
		b.Resize(w)
	}
	return retired
}
