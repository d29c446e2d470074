package event

import "sort"

// Watermark machinery for the resident ingest service: per-node low
// watermarks over local clocks, and an origin-sharded pending store that
// holds packet rows only until the watermark proves them complete, then
// retires them into a window sub-collection and compacts the storage in
// place. Retained rows are therefore proportional to the in-flight packet
// population, not to the total volume ever ingested.
//
// The watermark contract mirrors the repo-wide log assumption (per-node logs
// are append-only and locally ordered): a node whose watermark stands at w
// will never append another row with a local timestamp below w. Completeness
// of a packet additionally needs a bound on how far apart two rows about the
// SAME packet can be stamped — cross-node clock skew plus in-network packet
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

// pendingPacket is one in-flight packet's retirement state inside a shard.
type pendingPacket struct {
	maxTime int64
	rows    int32
}

// PendingShard holds one origin shard's unretired packet rows: per-node
// batches in append (= log) order, plus each packet's last-seen local
// timestamp. A shard is touched only by its owning session (under the
// session's lock) — it is never handed across a goroutine boundary.
//
//refill:owned
type PendingShard struct {
	logs map[NodeID]*Batch
	pkts map[PacketID]pendingPacket
	rows int
	// gone is retire's scratch membership set, reused across windows (a
	// resident session retires thousands of windows; clearing a map is far
	// cheaper than reallocating one per window per shard).
	gone map[PacketID]bool
}

// add routes one packet-scoped event into the shard.
func (s *PendingShard) add(n NodeID, e Event) {
	b := s.logs[n]
	if b == nil {
		b = &Batch{}
		s.logs[n] = b
	}
	b.Append(e)
	p := s.pkts[e.Packet]
	if p.rows == 0 || e.Time > p.maxTime {
		p.maxTime = e.Time
	}
	p.rows++
	s.pkts[e.Packet] = p
	s.rows++
}

// retire moves every packet whose last-seen timestamp is strictly below
// cutoff into dst (preserving each node's row order) and compacts the
// remaining rows in place, returning the number of packets retired.
//
// Per-packet per-node row order is all the downstream partitioner depends
// on; the cross-packet interleave inside dst's per-node logs is free to
// differ from the original logs because no PacketView ever spans packets.
func (s *PendingShard) retire(cutoff int64, dst *Collection) int {
	retired := 0
	//refill:allow maprange — builds an unordered membership set; the ordered copy below walks batches in row order
	for id, p := range s.pkts {
		if p.maxTime < cutoff {
			if s.gone == nil {
				s.gone = make(map[PacketID]bool, 16)
			}
			s.gone[id] = true
			s.rows -= int(p.rows)
			retired++
		}
	}
	if retired == 0 {
		return 0
	}
	//refill:allow maprange — per-node compaction; each node's rows land in its own dst log, so shard-internal node order is immaterial
	for n, b := range s.logs {
		s.compactBatch(n, b, s.gone, dst)
	}
	//refill:allow maprange — map-to-map deletion; no ordered output is produced
	for id := range s.gone {
		delete(s.pkts, id)
	}
	clear(s.gone)
	return retired
}

// retireAll moves every buffered packet into dst and empties the shard,
// returning the number of packets retired. No timestamp is consulted, so a
// packet stamped math.MaxInt64 — which no strict cutoff can ever clear —
// leaves with the rest.
func (s *PendingShard) retireAll(dst *Collection) int {
	retired := len(s.pkts)
	//refill:allow maprange — per-node move; each node's rows land in its own dst log, so shard-internal node order is immaterial
	for n, b := range s.logs {
		if b.Len() == 0 {
			continue
		}
		l := dst.Log(n)
		for i := 0; i < b.Len(); i++ {
			l.Append(b.At(i))
		}
		b.Reset()
	}
	clear(s.pkts)
	s.rows = 0
	return retired
}

// compactBatch walks one node's batch left to right, appending retired rows
// to dst and sliding surviving rows down over the holes.
func (s *PendingShard) compactBatch(n NodeID, b *Batch, gone map[PacketID]bool, dst *Collection) {
	w := 0
	for i := 0; i < len(b.typ); i++ {
		if gone[PacketID{Origin: b.origin[i], Seq: b.seq[i]}] {
			dst.Log(n).Append(b.At(i))
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
			if b.infoCol != nil {
				b.infoCol[w] = b.infoCol[i]
			} else if b.info != nil {
				if inf, ok := b.info[int32(i)]; ok {
					b.info[int32(w)] = inf
					delete(b.info, int32(i))
				} else {
					delete(b.info, int32(w))
				}
			}
		}
		w++
	}
	if b.info != nil {
		for i := w; i < len(b.typ); i++ {
			delete(b.info, int32(i))
		}
	}
	b.Resize(w)
}

// PendingStore is the session's packet-row buffer, sharded by packet origin
// (Fibonacci spreading, see originShard). Shards exist for retirement
// locality (each shard tracks its own packets and compacts its own batches);
// the store itself is driven single-threaded by its owning session.
type PendingStore struct {
	shards []PendingShard
}

// PendingShards is the origin-shard count both owners of a PendingStore use:
// the ingest session and the out-of-core window loop.
const PendingShards = 16

// NewPendingStore returns an empty store with n origin shards (n < 1 is
// raised to 1).
func NewPendingStore(n int) *PendingStore {
	if n < 1 {
		n = 1
	}
	shards := make([]PendingShard, n)
	for i := range shards {
		shards[i].logs = make(map[NodeID]*Batch)
		shards[i].pkts = make(map[PacketID]pendingPacket)
	}
	return &PendingStore{shards: shards}
}

// originShard maps an origin node to a shard index (Fibonacci hashing, so
// dense origin IDs spread instead of striping).
func originShard(origin NodeID, n int) int {
	return int((uint64(origin) * 0x9E3779B97F4A7C15 >> 32) % uint64(n))
}

// Append buffers one packet-scoped event logged at node n. Non-packet
// events (server up/down) are the caller's to keep — they are never
// retirable per packet.
func (ps *PendingStore) Append(n NodeID, e Event) {
	ps.shards[originShard(e.Packet.Origin, len(ps.shards))].add(n, e)
}

// Rows returns the number of buffered rows across all shards.
func (ps *PendingStore) Rows() int {
	total := 0
	for i := range ps.shards {
		total += ps.shards[i].rows
	}
	return total
}

// Packets returns the number of in-flight packets across all shards.
func (ps *PendingStore) Packets() int {
	total := 0
	for i := range ps.shards {
		total += len(ps.shards[i].pkts)
	}
	return total
}

// AppendPendingTo copies every buffered row into dst, shard-major (shard 0
// first) with nodes ascending inside each shard — the checkpoint layout.
// Replaying the result through Append on a store with the same shard count
// reproduces each shard's per-node row order exactly: rows route back to
// their shard by origin, and within one shard the serialization preserved
// arrival order.
func (ps *PendingStore) AppendPendingTo(dst *Collection) {
	nodes := make([]NodeID, 0, 16)
	for i := range ps.shards {
		sh := &ps.shards[i]
		nodes = nodes[:0]
		//refill:allow maprange — key collection; the sort below imposes the order
		for n := range sh.logs {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			b := sh.logs[n]
			if b.Len() == 0 {
				continue
			}
			l := dst.Log(n)
			for r := 0; r < b.Len(); r++ {
				l.Append(b.At(r))
			}
		}
	}
}

// RetireAll moves every buffered packet out of the store and into dst — the
// final retirement of a session drain and of the last out-of-core window,
// when every row has been fed and nothing can still be incomplete. Returns
// the number of packets retired.
func (ps *PendingStore) RetireAll(dst *Collection) int {
	retired := 0
	for i := range ps.shards {
		retired += ps.shards[i].retireAll(dst)
	}
	return retired
}

// RetireComplete moves every packet whose rows are provably complete — last
// seen strictly below cutoff, where the caller has already folded its skew
// horizon into cutoff — out of the store and into dst, shard by shard,
// compacting the retained storage. Returns the number of packets retired.
func (ps *PendingStore) RetireComplete(cutoff int64, dst *Collection) int {
	retired := 0
	for i := range ps.shards {
		retired += ps.shards[i].retire(cutoff, dst)
	}
	return retired
}
