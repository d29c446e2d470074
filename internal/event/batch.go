package event

import (
	"fmt"
	"strings"
)

// Batch is structure-of-arrays storage for event records: every fixed-size
// field of Event lives in its own flat column, and the rarely-used free-form
// Info strings are kept in one cold side table keyed by row — the only Info
// storage any batch has, arenas included. The hot columns contain no
// pointers, so a batch holding millions of events contributes almost nothing
// to GC scan work — the property that makes campaign-scale collections cheap
// to keep resident. A zero Batch is empty and ready to use.
//
// A batch holds one node's rows, the node kept once, so a row costs its six
// columns (25 B). Batch is the backing store of Log and of the ingest
// session's pending rows; Event remains the unit the rest of the system
// passes around — At materializes one on demand.
type Batch struct {
	node     NodeID
	typ      []Type
	sender   []NodeID
	receiver []NodeID
	origin   []NodeID
	seq      []uint32
	time     []int64
	// info is the cold side table: row index -> Info string, holding only
	// non-empty ones. It is nil until the first is stored, which on
	// simulator-driven campaigns is never — the hot path allocates no map.
	// An arena's table is complete before any analysis worker reads it, so
	// the workers' concurrent reads need no lock.
	info map[int32]string
	// ro marks a snapshot-mapped batch: its columns alias a read-only file
	// mapping, so every mutating path panics instead of faulting on a
	// protected page (or silently corrupting the portable fallback buffer
	// other readers share). Clone is the escape hatch — the copy is
	// writable.
	ro bool
}

// ReadOnly reports whether the batch is snapshot-mapped and immutable.
func (b *Batch) ReadOnly() bool { return b.ro }

// mutable panics when the batch is snapshot-mapped. Every mutating method
// calls it first; the panic converts what would be a SIGSEGV on the mapped
// pages into a diagnosable error at the API boundary.
func (b *Batch) mutable() {
	if b.ro {
		panic("event: batch is read-only (snapshot-mapped); Clone it to mutate")
	}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.typ) }

// Grow reserves capacity for n additional rows without changing Len. Each
// column is checked independently: append's size-class rounding gives byte
// columns more slack than word columns, so one column's capacity says nothing
// about the others'.
func (b *Batch) Grow(n int) {
	if n <= 0 {
		return
	}
	b.mutable()
	want := len(b.typ) + n
	b.sender = grown(b.sender, want)
	b.receiver = grown(b.receiver, want)
	b.origin = grown(b.origin, want)
	b.seq = grown(b.seq, want)
	b.time = grown(b.time, want)
	b.typ = grown(b.typ, want) // the byte column last: asked for second, batch-skew's peak RSS read 5 % higher
}

// reserve makes room for n more rows in one step, at least doubling the
// columns when they must grow: append grows a large slice by a quarter, so
// a store fed fragment by fragment would reallocate its columns five times
// as often. It checks the time column alone: a column left shorter is grown
// by the append that fills it, as it would have been anyway.
func (b *Batch) reserve(n int) {
	if len(b.typ)+n > cap(b.time) {
		b.Grow(max(len(b.typ), n))
	}
}

// extend lengthens every column by k rows for the caller to fill by index
// and returns the first new row. The columns grow as in reserve, at least
// doubling, so a batch extended chunk by chunk copies its rows a constant
// number of times.
func (b *Batch) extend(k int) int {
	lo := len(b.typ)
	b.reserve(k)
	b.Resize(lo + k)
	return lo
}

// grown returns s with capacity for at least want elements.
func grown[T any](s []T, want int) []T {
	if cap(s) >= want {
		return s
	}
	out := make([]T, len(s), want)
	copy(out, s)
	return out
}

// Resize sets the row count to n, zero-filling new rows. Existing rows are
// preserved up to min(Len, n). Partition uses it to allocate an arena
// once and fill rows by index.
func (b *Batch) Resize(n int) {
	b.mutable()
	if n > len(b.typ) {
		b.Grow(n - len(b.typ))
	}
	b.typ = b.typ[:n]
	b.sender = b.sender[:n]
	b.receiver = b.receiver[:n]
	b.origin = b.origin[:n]
	b.seq = b.seq[:n]
	b.time = b.time[:n]
}

// claim makes n the batch's node: an empty batch takes any node, and one
// that holds rows panics on another, naming both.
func (b *Batch) claim(n NodeID) {
	if len(b.typ) > 0 && b.node != n {
		panic(fmt.Sprintf("event: row of node %v given to a batch of node %v", n, b.node))
	}
	b.node = n
}

// Append adds one event as a new row; it must be the batch's node's (claim).
func (b *Batch) Append(e Event) {
	b.mutable()
	b.claim(e.Node)
	b.typ = append(b.typ, e.Type)
	b.sender = append(b.sender, e.Sender)
	b.receiver = append(b.receiver, e.Receiver)
	b.origin = append(b.origin, e.Packet.Origin)
	b.seq = append(b.seq, e.Packet.Seq)
	b.time = append(b.time, e.Time)
	putInfo(&b.info, len(b.typ)-1, e.Info)
}

// putInfo records a non-empty Info for row i in the side table *m,
// allocating it on first use; an empty one is not stored.
func putInfo(m *map[int32]string, i int, inf string) {
	if inf == "" {
		return
	}
	if *m == nil {
		*m = make(map[int32]string)
	}
	(*m)[int32(i)] = inf
}

// appendRange appends rows [lo, hi) of src as node n's, copying each column
// by one append. Info is read only when src has any.
func (b *Batch) appendRange(n NodeID, src *Batch, lo, hi int) {
	b.mutable()
	b.claim(n)
	base := len(b.typ)
	b.sender = append(b.sender, src.sender[lo:hi]...)
	b.receiver = append(b.receiver, src.receiver[lo:hi]...)
	b.origin = append(b.origin, src.origin[lo:hi]...)
	b.seq = append(b.seq, src.seq[lo:hi]...)
	b.time = append(b.time, src.time[lo:hi]...)
	b.typ = append(b.typ, src.typ[lo:hi]...) // the byte column last, as in Grow
	if len(src.info) == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		putInfo(&b.info, base+i-lo, src.info[int32(i)])
	}
}

// appendView appends rows [lo, hi) of view arena a, all node n's events
// about packet pkt: the columns the arena leaves out are filled from n and
// pkt.
func (b *Batch) appendView(n NodeID, pkt PacketID, a *viewArena, lo, hi int) {
	b.mutable()
	b.claim(n)
	base := len(b.typ)
	for i, l := range a.link[lo:hi] {
		b.origin, b.seq = append(b.origin, pkt.Origin), append(b.seq, pkt.Seq)
		b.sender, b.receiver = append(b.sender, NodeID(l>>32)), append(b.receiver, NodeID(l))
		putInfo(&b.info, base+i, a.info[int32(lo+i)])
	}
	b.time = append(b.time, a.time[lo:hi]...)
	b.typ = append(b.typ, a.typ[lo:hi]...) // the byte column last, as in Grow
}

// Set overwrites existing row i (see Resize) with e, of the batch's node.
func (b *Batch) Set(i int, e Event) {
	b.mutable()
	b.claim(e.Node)
	b.typ[i] = e.Type
	b.sender[i] = e.Sender
	b.receiver[i] = e.Receiver
	b.origin[i] = e.Packet.Origin
	b.seq[i] = e.Packet.Seq
	b.time[i] = e.Time
	delete(b.info, int32(i))
	putInfo(&b.info, i, e.Info)
}

// At materializes row i as an Event.
//
//refill:noalloc
//refill:inline — called per row by the text writer and Log.At
func (b *Batch) At(i int) Event {
	e := Event{
		Node:     b.node,
		Type:     b.typ[i],
		Sender:   b.sender[i],
		Receiver: b.receiver[i],
		Packet:   PacketID{Origin: b.origin[i], Seq: b.seq[i]},
		Time:     b.time[i],
	}
	if b.info != nil {
		e.Info = b.info[int32(i)]
	}
	return e
}

// Node returns row i's logging node: the batch's.
func (b *Batch) Node(i int) NodeID { return b.node }

// Type returns row i's event type.
func (b *Batch) Type(i int) Type { return b.typ[i] }

// Sender returns row i's sender.
func (b *Batch) Sender(i int) NodeID { return b.sender[i] }

// Receiver returns row i's receiver.
func (b *Batch) Receiver(i int) NodeID { return b.receiver[i] }

// Packet returns row i's packet identity.
func (b *Batch) Packet(i int) PacketID {
	return PacketID{Origin: b.origin[i], Seq: b.seq[i]}
}

// Time returns row i's timestamp.
func (b *Batch) Time(i int) int64 { return b.time[i] }

// Info returns row i's free-form info ("" for the vast majority of rows).
func (b *Batch) Info(i int) string { return b.info[int32(i)] }

// Reset empties the batch, keeping column capacity.
func (b *Batch) Reset() {
	b.mutable()
	b.Resize(0)
	b.info = nil
}

// Clone returns a deep copy, which owns its Info strings: the copy of a
// snapshot-mapped batch outlives the mapping.
func (b *Batch) Clone() Batch {
	out := Batch{
		node:     b.node,
		typ:      append([]Type(nil), b.typ...),
		sender:   append([]NodeID(nil), b.sender...),
		receiver: append([]NodeID(nil), b.receiver...),
		origin:   append([]NodeID(nil), b.origin...),
		seq:      append([]uint32(nil), b.seq...),
		time:     append([]int64(nil), b.time...),
	}
	//refill:allow maprange — map-to-map copy; no ordered output is produced
	for i, inf := range b.info {
		putInfo(&out.info, int(i), strings.Clone(inf))
	}
	return out
}

// Events materializes every row, in order, as a fresh []Event. It exists for
// tests, tools and format shims: the analysis paths read columns directly,
// and so do the session's feeders — refill-serve appends a decoded body and
// the snapshot source a mapped window with ingest.Session.AppendRows, which
// reads the batch in place.
func (b *Batch) Events() []Event {
	out := make([]Event, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}
