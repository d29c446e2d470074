package event

import (
	"fmt"
	"math"
	"slices"
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
	slices.Sort(nodes)
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

// ViewSpan is one node's contiguous run of rows inside a PacketView's arena:
// the node's events about the packet, in log order, at rows [Start, End).
type ViewSpan struct {
	Node       NodeID
	Start, End int32
}

// PacketView is the per-packet slice of a collection: for one packet, the
// ordered sub-logs of every node that recorded (or should have recorded)
// events about it. The inference engine runs on one PacketView at a time.
//
// Storage is columnar and packet-shaped: the view's rows live in a (possibly
// shared) viewArena that stores only what varies inside a packet, and Spans
// lists each node's contiguous row range, exactly one span per node,
// ascending by node ID. A row's node is its span's and its packet is the
// view's, so every accessor supplies them from there. Partition carves all
// views of a collection out of ONE shared arena, in view order, so
// partitioning a million-event campaign performs a handful of allocations
// instead of several per packet.
type PacketView struct {
	Packet PacketID
	rows   *viewArena
	spans  []ViewSpan
}

// viewArena holds packet views' rows: the fields that vary inside a packet
// and the Info side table (row -> Info, non-empty ones only, nil until the
// first). It has no node, origin or seq column: the span and the view hold
// those. Sender and receiver share one int64 column (link), so that
// Partition can lay both of its int64 sort-key columns, dead once the views
// are cut, under link and time. An arena's table is complete before any
// analysis worker reads it, so the workers' concurrent reads need no lock.
type viewArena struct {
	typ  []Type
	link []int64 // sender<<32 | receiver
	time []int64
	info map[int32]string
}

// link packs a row's sender and receiver into a viewArena link.
func link(sender, receiver NodeID) int64 { return int64(sender)<<32 | int64(receiver) }

// NewPacketView builds a self-contained view from per-node event slices,
// preserving each node's order — the construction path for tests and for
// callers that assemble views by hand. Nodes are laid out in ascending order,
// matching Partition's invariant. Each row's node is its map key and its
// packet is pkt, whatever the event's own Node and Packet fields say.
func NewPacketView(pkt PacketID, perNode map[NodeID][]Event) *PacketView {
	nodes := make([]NodeID, 0, len(perNode))
	total := 0
	//refill:allow maprange — key collection + commutative count; the sort below imposes the order
	for n, evs := range perNode {
		nodes = append(nodes, n)
		total += len(evs)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	a := &viewArena{link: make([]int64, total), time: make([]int64, total), typ: make([]Type, total)}
	v := &PacketView{Packet: pkt, rows: a, spans: make([]ViewSpan, 0, len(nodes))}
	r := int32(0)
	for _, n := range nodes {
		evs := perNode[n]
		if len(evs) == 0 {
			continue
		}
		start := r
		for _, e := range evs {
			a.typ[r], a.link[r], a.time[r] = e.Type, link(e.Sender, e.Receiver), e.Time
			putInfo(&a.info, int(r), e.Info)
			r++
		}
		v.spans = append(v.spans, ViewSpan{Node: n, Start: start, End: r})
	}
	return v
}

// Spans returns the view's per-node row ranges, ascending by node ID.
// The slice is the view's own storage — callers must not mutate it.
func (v *PacketView) Spans() []ViewSpan { return v.spans }

// EventAt materializes arena row i of node n's span (an index taken from
// that span) as n's event about the view's packet.
//
//refill:noalloc
//refill:inline — the engine's per-committed-row fetch
func (v *PacketView) EventAt(n NodeID, i int) Event {
	a, l := v.rows, v.rows.link[i]
	e := Event{Node: n, Type: a.typ[i], Sender: NodeID(l >> 32), Receiver: NodeID(l), Packet: v.Packet, Time: a.time[i]}
	if a.info != nil {
		e.Info = a.info[int32(i)]
	}
	return e
}

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
		if sp.Node == n {
			return v.appendSpan(nil, sp)
		}
	}
	return nil
}

// appendSpan appends span sp's events to out.
func (v *PacketView) appendSpan(out []Event, sp ViewSpan) []Event {
	out = slices.Grow(out, int(sp.End-sp.Start))
	for i := sp.Start; i < sp.End; i++ {
		out = append(out, v.EventAt(sp.Node, int(i)))
	}
	return out
}

// PerNodeEvents materializes the whole view as a node -> events map — the
// adjacency the pre-SoA PacketView stored directly. Tests and baselines use
// it; the engine reads spans.
func (v *PacketView) PerNodeEvents() map[NodeID][]Event {
	out := make(map[NodeID][]Event, len(v.spans))
	for _, sp := range v.spans {
		out[sp.Node] = v.appendSpan(nil, sp)
	}
	return out
}

// Events materializes every event in the view in span order (per-node log
// order within each span).
func (v *PacketView) Events() []Event {
	out := make([]Event, 0, v.TotalEvents())
	for _, sp := range v.spans {
		out = v.appendSpan(out, sp)
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

// checkArenaRows panics when Partition's body is given more rows than one
// view arena can address: it numbers rows in uint32 and ViewSpan offsets are
// int32, and past the limit both would wrap silently.
func checkArenaRows(rows int64) {
	if rows > math.MaxInt32 {
		panic(fmt.Sprintf("event: %d rows given to one view arena, above the %d it can address (ViewSpan offsets are int32); analyze the rows in smaller windows (a snapshot analyzed out of core, or a session that advances more often)", rows, math.MaxInt32))
	}
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
