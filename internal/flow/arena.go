package flow

import "repro/internal/event"

// Arena backs the output of many flows — the Flow structs themselves and
// their Items, Visits and Anomalies slices — in shared chunked columns,
// mirroring the shared batch arena the partitioner uses on the input side.
// Each committed flow is an exactly-sized span carved out of the current
// chunk, so reconstructing a campaign performs a handful of chunk
// allocations instead of several per packet, and the flow output occupies
// long contiguous runs that the GC scans as a few objects.
//
// An Arena is NOT safe for concurrent use: the driver gives
// every worker its own arena, which also keeps each worker's output on
// memory that worker touched (the NUMA posture ROADMAP asks for).
//
// Build tolerates a nil receiver, which degrades to plain exact-sized heap
// allocation — the engine funnels both its arena-backed and its standalone
// (AnalyzePacket) paths through the same Build call.
//
// An arena either keeps what it carves, growing chunk by chunk for as long as
// its flows are referenced, or is Reset after each use of a flow: a worker
// whose flows nobody keeps classifies each one and then recycles the same
// small chunks for the next, so a window of any size costs a few chunks per
// worker instead of a chunked copy of every flow in it.
//
//refill:owned — one arena per worker; flows carved by one worker must not cross another
type Arena struct {
	flows  column[Flow]
	items  column[Item]
	visits column[Visit]
	anoms  column[Anomaly]
}

// Sizing seeds an Arena's first chunk per column. The hints come from
// partition statistics: logged items are known exactly ahead of time,
// inferred items are an estimate (see engine's sizing heuristic), and any
// under-estimate is corrected by chunking — later chunks grow geometrically,
// so a bad hint costs a few extra allocations, never correctness.
type Sizing struct {
	// Flows is the expected number of flows (the partition's view count).
	Flows int
	// Items is the expected total item count: known logged rows plus the
	// estimated inferred volume.
	Items int
	// Visits is the expected total visit count (≈ per-view span count plus
	// slack for rotation and prerequisite-driven silent nodes).
	Visits int
	// Anomalies is the expected total anomaly count (rare).
	Anomalies int
}

// NewArena returns an arena whose first chunk per column is sized by s.
// Zero hints fall back to modest defaults.
func NewArena(s Sizing) *Arena {
	a := &Arena{}
	a.flows.next = chunkHint(s.Flows, 64)
	a.items.next = chunkHint(s.Items, 256)
	a.visits.next = chunkHint(s.Visits, 128)
	a.anoms.next = chunkHint(s.Anomalies, 16)
	return a
}

// Reset empties the arena for reuse. Each column keeps its current chunk —
// after a flow larger than any before it, that is the refill sized for it —
// zeroes what was carved from it and carves from its start again, so every
// flow built since the last Reset is invalid afterwards: its struct and spans
// are overwritten by the next Build. Call it only once nothing reads those
// flows any more.
//
//refill:noalloc — the discard path's per-flow recycle
func (a *Arena) Reset() {
	a.flows.reset()
	a.items.reset()
	a.visits.reset()
	a.anoms.reset()
}

//refill:inline
func chunkHint(hint, def int) int {
	if hint > def {
		return hint
	}
	return def
}

// column is one chunked slab: carve hands out exactly-sized spans of the
// current chunk and allocates a fresh chunk when the remainder is too small.
// Retired chunks are dropped — the flows carved from them keep them alive.
// Chunks never reallocate in place, so previously carved spans stay valid.
type column[T any] struct {
	chunk []T
	next  int // capacity of the next chunk
}

// reset zeroes the carved part of the current chunk — carve promises zeroed
// spans, and a stale Item would keep its Info string alive — and carves from
// its start again. Earlier chunks were dropped as they filled.
func (c *column[T]) reset() {
	clear(c.chunk)
	c.chunk = c.chunk[:0]
}

// carve returns a zeroed span of exactly n elements (cap clamped to n, so a
// consumer appending to it copies out instead of clobbering its neighbor).
//
//refill:noalloc — span carving is the campaign-dominant commit path; only chunk refills may allocate
func (c *column[T]) carve(n int) []T {
	if n > cap(c.chunk)-len(c.chunk) {
		size := c.next
		if size < n {
			size = n
		}
		first := c.chunk == nil
		//refill:allow escapecheck — amortized chunk refill: O(log n) makes over a column's lifetime
		c.chunk = make([]T, 0, size)
		if first {
			// A sizing hint that falls just short should cost a cheap
			// correction chunk, not a doubling of the whole column: the
			// first refill is half the hinted chunk. Large allocations
			// are the campaign's dominant cost (the chunk is zeroed and
			// its pages faulted in), so over-allocation is pure waste.
			c.next = size / 2
			if c.next < 64 {
				c.next = 64
			}
		} else {
			// Geometric refill growth from there: a badly low hint costs
			// O(log n) extra chunks, not O(n) — the "corrected by
			// chunking" half of the sizing contract.
			c.next = size * 2
		}
	}
	off := len(c.chunk)
	c.chunk = c.chunk[:off+n]
	return c.chunk[off : off+n : off+n]
}

// Build commits one reconstructed flow: the Flow struct and exact-size
// copies of its items, visits and anomalies are carved from the arena
// (or heap-allocated when a is nil), and the O(1) inferred counter is
// installed. inferred must be the number of inferred entries in items.
// Empty slices commit as nil on both paths, so arena-backed and standalone
// flows stay deeply equal.
//
//refill:noalloc — arena-backed commits must stay on carved spans; only the nil-arena standalone path allocates
func (a *Arena) Build(pkt event.PacketID, items []Item, visits []Visit, anoms []Anomaly, inferred int) *Flow {
	var f *Flow
	if a == nil {
		//refill:allow escapecheck — nil-arena standalone path: exact-sized by design (AnalyzePacket)
		f = new(Flow)
	} else {
		f = &a.flows.carve(1)[0]
	}
	f.Packet = pkt
	if len(items) > 0 {
		var dst []Item
		if a == nil {
			//refill:allow escapecheck — nil-arena standalone path: exact-sized by design
			dst = make([]Item, len(items))
		} else {
			dst = a.items.carve(len(items))
		}
		copy(dst, items)
		f.Items = dst
	}
	if len(visits) > 0 {
		var dst []Visit
		if a == nil {
			//refill:allow escapecheck — nil-arena standalone path: exact-sized by design
			dst = make([]Visit, len(visits))
		} else {
			dst = a.visits.carve(len(visits))
		}
		copy(dst, visits)
		f.Visits = dst
	}
	if len(anoms) > 0 {
		var dst []Anomaly
		if a == nil {
			//refill:allow escapecheck — nil-arena standalone path: exact-sized by design
			dst = make([]Anomaly, len(anoms))
		} else {
			dst = a.anoms.carve(len(anoms))
		}
		copy(dst, anoms)
		f.Anomalies = dst
	}
	f.inferred = int32(inferred)
	f.counted = int32(len(items))
	return f
}
