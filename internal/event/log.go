package event

import (
	"fmt"
	"math"
	"sort"
)

// Log is the ordered sequence of events recorded at one node. The order is
// the order the node logged them in — the only ordering information REFILL
// assumes (local logs are append-only, so per-node order is trustworthy even
// when clocks are not). Storage is a structure-of-arrays Batch: the hot
// fixed-size fields live in flat pointer-free columns, Info strings in a cold
// side table, so campaign-scale logs cost the GC almost nothing to scan.
type Log struct {
	Node  NodeID
	batch Batch
}

// Append adds an event to the log, stamping its Node field.
func (l *Log) Append(e Event) {
	e.Node = l.Node
	l.batch.Append(e)
}

// Len returns the number of events in the log.
func (l *Log) Len() int { return l.batch.Len() }

// At materializes the i'th event of the log.
func (l *Log) At(i int) Event { return l.batch.At(i) }

// Batch exposes the log's columnar storage for callers that stream columns
// (partitioners, codecs) or need to bypass the Node stamping of Append.
func (l *Log) Batch() *Batch { return &l.batch }

// Events materializes the whole log as a fresh []Event (a copy — mutating it
// does not affect the log). Analysis and serving paths iterate At/Batch
// instead.
func (l *Log) Events() []Event { return l.batch.Events() }

// Clone returns a deep copy of the log.
func (l *Log) Clone() Log {
	return Log{Node: l.Node, batch: l.batch.Clone()}
}

// Validate checks that every event belongs to this node and is well formed.
func (l *Log) Validate() error {
	for i := 0; i < l.batch.Len(); i++ {
		e := l.batch.At(i)
		if e.Node != l.Node {
			return fmt.Errorf("event: log for node %v contains event for node %v at index %d", l.Node, e.Node, i)
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event: log index %d: %w", i, err)
		}
	}
	return nil
}

// Collection is a set of per-node logs, as retrieved from the network. It is
// the input to the REFILL pipeline. Logs may be missing for some nodes
// entirely (node failure) and individual events may be missing inside each
// log (lossy logging / lossy collection).
type Collection struct {
	Logs map[NodeID]*Log
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{Logs: make(map[NodeID]*Log)}
}

// Log returns the log for node n, creating it if needed.
func (c *Collection) Log(n NodeID) *Log {
	l, ok := c.Logs[n]
	if !ok {
		l = &Log{Node: n}
		c.Logs[n] = l
	}
	return l
}

// Add appends an event to the log of the node named in the event.
func (c *Collection) Add(e Event) {
	c.Log(e.Node).Append(e)
}

// Nodes returns the node IDs that have logs, in ascending order, for
// deterministic iteration.
func (c *Collection) Nodes() []NodeID {
	nodes := make([]NodeID, 0, len(c.Logs))
	//refill:allow maprange — key collection; the sort below imposes the order
	for n := range c.Logs {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// TotalEvents returns the number of events across all logs.
func (c *Collection) TotalEvents() int {
	total := 0
	//refill:allow maprange — commutative sum; order-independent
	for _, l := range c.Logs {
		total += l.Len()
	}
	return total
}

// Validate checks every contained log.
func (c *Collection) Validate() error {
	for _, n := range c.Nodes() {
		if err := c.Logs[n].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ResetLogs empties every log in place, keeping the per-node column
// capacity, so a collection reused across PendingStore.RetireComplete calls
// appends into already-sized columns instead of regrowing fresh ones.
func (c *Collection) ResetLogs() {
	//refill:allow maprange — in-place per-log reset; no ordered output is produced
	for _, l := range c.Logs {
		l.batch.Reset()
	}
}

// Clone returns a deep copy of the collection.
func (c *Collection) Clone() *Collection {
	out := NewCollection()
	//refill:allow maprange — map-to-map copy; no ordered output is produced
	for n, l := range c.Logs {
		cl := l.Clone()
		out.Logs[n] = &cl
	}
	return out
}

// ViewSpan is one node's contiguous run of rows inside a PacketView's batch:
// the node's events about the packet, in log order, at rows [Start, End).
type ViewSpan struct {
	Node       NodeID
	Start, End int32
}

// PacketView is the per-packet slice of a collection: for one packet, the
// ordered sub-logs of every node that recorded (or should have recorded)
// events about it. The inference engine runs on one PacketView at a time.
//
// Storage is columnar: the view's events live in a (possibly shared) Batch,
// and Spans lists each node's contiguous row range, exactly one span per
// node, ascending by node ID. Partition carves all views of a collection out
// of ONE shared batch arena, in view order, so partitioning a million-event
// campaign performs a handful of allocations instead of several per packet.
type PacketView struct {
	Packet PacketID
	batch  *Batch
	spans  []ViewSpan
}

// NewPacketView builds a self-contained view from per-node event slices,
// preserving each node's order — the construction path for tests and for
// callers that assemble views by hand. Nodes are laid out in ascending order,
// matching Partition's invariant.
func NewPacketView(pkt PacketID, perNode map[NodeID][]Event) *PacketView {
	nodes := make([]NodeID, 0, len(perNode))
	total := 0
	//refill:allow maprange — key collection + commutative count; the sort below imposes the order
	for n, evs := range perNode {
		nodes = append(nodes, n)
		total += len(evs)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	v := &PacketView{Packet: pkt, batch: &Batch{}, spans: make([]ViewSpan, 0, len(nodes))}
	v.batch.Grow(total)
	for _, n := range nodes {
		evs := perNode[n]
		if len(evs) == 0 {
			continue
		}
		start := int32(v.batch.Len())
		for _, e := range evs {
			v.batch.Append(e)
		}
		v.spans = append(v.spans, ViewSpan{Node: n, Start: start, End: int32(v.batch.Len())})
	}
	return v
}

// Spans returns the view's per-node row ranges, ascending by node ID.
// The slice is the view's own storage — callers must not mutate it.
func (v *PacketView) Spans() []ViewSpan { return v.spans }

// EventAt materializes the event at batch row i (an index taken from a span).
//
//refill:noalloc
//refill:inline — the engine's per-committed-row fetch
func (v *PacketView) EventAt(i int) Event { return v.batch.At(i) }

// Batch exposes the view's columnar storage. Rows outside the view's spans
// belong to other packets (the batch is a shared arena).
func (v *PacketView) Batch() *Batch { return v.batch }

// NodeCount returns the number of nodes with events in the view.
func (v *PacketView) NodeCount() int { return len(v.spans) }

// Nodes returns the nodes with events in the view, ascending.
func (v *PacketView) Nodes() []NodeID {
	nodes := make([]NodeID, len(v.spans))
	for i, sp := range v.spans {
		nodes[i] = sp.Node
	}
	return nodes
}

// NodeEvents materializes node n's events about the packet, in log order
// (nil if the node logged none).
func (v *PacketView) NodeEvents(n NodeID) []Event {
	for _, sp := range v.spans {
		if sp.Node != n {
			continue
		}
		out := make([]Event, 0, sp.End-sp.Start)
		for i := sp.Start; i < sp.End; i++ {
			out = append(out, v.batch.At(int(i)))
		}
		return out
	}
	return nil
}

// PerNodeEvents materializes the whole view as a node -> events map — the
// adjacency the pre-SoA PacketView stored directly. Tests and baselines use
// it; the engine reads spans.
func (v *PacketView) PerNodeEvents() map[NodeID][]Event {
	out := make(map[NodeID][]Event, len(v.spans))
	for _, sp := range v.spans {
		out[sp.Node] = v.NodeEvents(sp.Node)
	}
	return out
}

// Events materializes every event in the view in span order (per-node log
// order within each span).
func (v *PacketView) Events() []Event {
	out := make([]Event, 0, v.TotalEvents())
	for _, sp := range v.spans {
		for i := sp.Start; i < sp.End; i++ {
			out = append(out, v.batch.At(int(i)))
		}
	}
	return out
}

// TotalEvents returns the number of events in the view.
func (v *PacketView) TotalEvents() int {
	total := 0
	for _, sp := range v.spans {
		total += int(sp.End - sp.Start)
	}
	return total
}

// checkArenaRows panics when a collection has more rows than one Partition
// call can address: it numbers rows in uint32 and ViewSpan offsets are int32,
// and past the limit both would wrap silently.
func checkArenaRows(rows int64) {
	if rows > math.MaxInt32 {
		panic(fmt.Sprintf("event: Partition given %d rows, above the %d one arena can address (ViewSpan offsets are int32); analyze the collection in windows (a snapshot analyzed out of core, or a session)", rows, math.MaxInt32))
	}
}

// Partition splits a collection into per-packet views, preserving per-node
// event order within each view. Non-packet-scoped events (server up/down) are
// returned separately. Views are ordered by packet ID (origin, then seq) for
// deterministic processing.
//
// Partition is a sort. One scan of the logs (ascending node, log order) gives
// every packet-scoped row the key origin<<32|seq and a global row number;
// sortByKey orders the pairs by key, stably; a sweep then cuts a view at every
// key change and a span at every node change, and the rows are gathered into
// one shared arena in that order. Stability is what makes the spans right:
// inside a packet the row numbers stay ascending, which is ascending node and
// log order, so each node's rows are adjacent (one span, however other
// packets interleaved them in its log) and in log order. The arena is laid
// out in view order, so walking a range of views reads it front to back. The
// number of allocations is fixed, whatever the collection holds.
//
// Partition serves the batch path only. The session's windows never reach
// it: PendingStore.Retire lays out the same views straight from the store,
// which already knows every row's packet, so it sorts packets, not rows.
func Partition(c *Collection) (views []*PacketView, operational []Event) {
	nodes := c.Nodes()
	total := c.TotalEvents()
	checkArenaRows(int64(total))
	// first[ni] is the global number of node ni's first row.
	first := make([]uint32, len(nodes)+1)
	logs := make([]*Batch, len(nodes))
	// Packet-scoped rows fill keys and rows from the front, operational rows
	// fill rows from the back, so neither needs counting first.
	keys, rows := make([]uint64, total), make([]uint32, total)
	n, nops, hasInfo := 0, 0, false
	var varying uint64 // key bits that differ between some two rows
	for ni, nd := range nodes {
		b := &c.Logs[nd].batch
		logs[ni] = b
		hasInfo = hasInfo || len(b.info) > 0
		for i, t := range b.typ {
			if !t.PacketScoped() {
				nops++
				rows[total-nops] = first[ni] + uint32(i)
				continue
			}
			k := uint64(b.origin[i])<<32 | uint64(b.seq[i])
			keys[n], rows[n] = k, first[ni]+uint32(i)
			varying |= k ^ keys[0]
			n++
		}
		first[ni+1] = first[ni] + uint32(len(b.typ))
	}
	if nops > 0 { // else nil, as OperationalEvents returns it
		operational = make([]Event, nops)
		for k := range operational {
			r := rows[total-1-k]
			ni := nodeOfRow(first, r)
			operational[k] = logs[ni].At(int(r - first[ni]))
		}
		sort.Slice(operational, func(i, j int) bool { return operational[i].Time < operational[j].Time })
	}
	keys, rows, nis := sortByKey(keys[:n], rows[:n], varying)

	// Resolve each sorted row to (node index, row in that node's log) and
	// count the views and spans. Row numbers ascend inside a packet, so the
	// node changes only when one passes the end of the current node's log.
	nviews, nspans := 0, 0
	for j, ni := 0, 0; j < n; j++ {
		newView := j == 0 || keys[j] != keys[j-1]
		if newView {
			nviews++
		}
		if newView || rows[j] >= first[ni+1] {
			ni = nodeOfRow(first, rows[j])
			nspans++
		}
		nis[j], rows[j] = uint32(ni), rows[j]-first[ni]
	}

	arena := &Batch{}
	arena.Resize(n)
	spans := make([]ViewSpan, 0, nspans)
	structs := make([]PacketView, 0, nviews)
	views = make([]*PacketView, 0, nviews)
	var v *PacketView
	for j := 0; j < n; j++ {
		pkt := PacketID{Origin: NodeID(keys[j] >> 32), Seq: uint32(keys[j])}
		newView := j == 0 || keys[j] != keys[j-1]
		if newView {
			structs = append(structs, PacketView{Packet: pkt, batch: arena})
			v = &structs[len(structs)-1]
			views = append(views, v)
		}
		if newView || nis[j] != nis[j-1] {
			spans = append(spans, ViewSpan{Node: nodes[nis[j]], Start: int32(j)})
			v.spans = spans[len(spans)-len(v.spans)-1 : len(spans) : len(spans)] // one longer
		}
		spans[len(spans)-1].End = int32(j + 1)
		arena.origin[j], arena.seq[j] = pkt.Origin, pkt.Seq
	}
	// The other columns are gathered one at a time: a loop reading one source
	// column keeps many cache misses in flight, a loop reading five does not.
	gather(arena.node, logs, nis, rows, func(b *Batch) []NodeID { return b.node })
	gather(arena.typ, logs, nis, rows, func(b *Batch) []Type { return b.typ })
	gather(arena.sender, logs, nis, rows, func(b *Batch) []NodeID { return b.sender })
	gather(arena.receiver, logs, nis, rows, func(b *Batch) []NodeID { return b.receiver })
	gather(arena.time, logs, nis, rows, func(b *Batch) []int64 { return b.time })
	if hasInfo { // the arena's table is complete before any worker reads it
		for j, ni := range nis {
			arena.setInfo(j, logs[ni].info[int32(rows[j])])
		}
	}
	return views, operational
}

// nodeOfRow returns the index of the node whose log holds global row r: the
// ni with first[ni] <= r < first[ni+1].
func nodeOfRow(first []uint32, r uint32) int {
	return sort.Search(len(first)-1, func(ni int) bool { return first[ni+1] > r })
}

// gather fills one arena column: dst[j] is row rows[j] of log nis[j]'s col.
func gather[T any](dst []T, logs []*Batch, nis, rows []uint32, col func(*Batch) []T) {
	src := make([][]T, len(logs))
	for ni, b := range logs {
		src[ni] = col(b)
	}
	for j := range dst {
		dst[j] = src[nis[j]][rows[j]]
	}
}

// sortByKey orders the (key, row) pairs by key with a stable LSD byte-radix
// sort (equal keys keep their input order). It returns the ordered columns
// and the row column left spare, which the caller reuses.
//
// varying has a bit set wherever two keys differ. A key byte with none set is
// the same in every key, its pass would move nothing, and it is skipped: a
// campaign's few hundred origins and few thousand sequence numbers sort in
// three or four passes, any input in at most eight, and a sparse key space
// costs passes, never memory.
func sortByKey(keys []uint64, rows []uint32, varying uint64) (_ []uint64, _, spare []uint32) {
	keys2, rows2 := []uint64(nil), make([]uint32, len(rows))
	if varying != 0 {
		keys2 = make([]uint64, len(keys))
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if varying>>shift&0xFF == 0 {
			continue
		}
		var next [256]uint32 // next[d]: where the next key with digit d goes
		for _, k := range keys {
			next[byte(k>>shift)]++
		}
		sum := uint32(0)
		for d, count := range next {
			next[d], sum = sum, sum+count
		}
		for i, k := range keys {
			d := byte(k >> shift)
			keys2[next[d]], rows2[next[d]] = k, rows[i]
			next[d]++
		}
		keys, keys2, rows, rows2 = keys2, keys, rows2, rows
	}
	return keys, rows, rows2
}

// OperationalEvents extracts the non-packet-scoped events (server up/down)
// from a collection, sorted by time — the same slice Partition returns as its
// second result, without building any views. A single pass over the dense
// type columns; the ingest session runs it over its handful of operational
// rows to build the outage schedule it classifies each window against.
func OperationalEvents(c *Collection) []Event {
	var ops []Event
	for _, n := range c.Nodes() {
		b := &c.Logs[n].batch
		for i := 0; i < len(b.typ); i++ {
			if !b.typ[i].PacketScoped() {
				ops = append(ops, b.At(i))
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Time < ops[j].Time })
	return ops
}
