package engine

import (
	"sync"

	"repro/internal/event"
)

// Work-stealing shard scheduler. Partition orders views by (origin, seq), so
// cutting the view slice at origin boundaries hands each worker whole
// origins; but a fixed cut serializes the tail whenever the origin
// distribution is skewed: one hot origin becomes one chunk, and every other
// worker idles while its owner walks it. The scheduler below keeps the
// origin-aligned initial placement (volume-balanced, so a uniform campaign
// never pays a steal) but lets idle workers steal — half a victim's queued
// units at a time, or, when the victim is down to a single large unit, half
// of that unit's view range. Splitting inside an origin is legal: packet
// reconstruction is independent per view and every result lands in a
// packet-indexed slot, so no shard ever needs to hold a whole origin for
// correctness.
//
// Determinism: the set of (view index → worker) assignments is racy by
// construction, but the driver's workers write flows and outcomes into
// per-view indexed slots and fold per-worker aggregates with the
// order-independent diagnosis.Aggregate.Merge. Steal order therefore never
// leaks into the output.
//
// Ownership: the deques are shared mutably across workers by design — every
// access is under the per-deque mutex, and a unit is plain data (two ints),
// not scratch state. The worker-owned state (run, arena, classifier,
// aggregate) is local to the worker body (work in driver.go) and never
// crosses it; see //refill:owned on those types.

// unit is one batch work item: the view index range [lo, hi). Units are
// origin-aligned when enqueued; a steal may split one mid-origin.
type unit struct{ lo, hi int32 }

// stealDeque is one worker's unit queue. The owner pops from the tail,
// thieves take from the head, both under mu.
type stealDeque struct {
	mu    sync.Mutex
	units []unit
	_     [40]byte // pad to a cache line so neighboring deques don't false-share
}

// stealScheduler distributes origin-aligned view ranges over per-worker
// deques with steal-half rebalancing.
type stealScheduler struct {
	deques []stealDeque
	grain  int32
}

// newStealScheduler seeds one deque per worker with that worker's share of
// the origin-chunk cut, split into per-origin units so thieves can
// take whole origins before they resort to splitting one.
func newStealScheduler(views []*event.PacketView, workers int) *stealScheduler {
	s := &stealScheduler{deques: make([]stealDeque, workers)}
	// Pop granularity: coarse enough to amortize the deque lock over many
	// sub-millisecond packet analyses, fine enough that a split unit still
	// spreads. ~64 pops per worker per campaign.
	s.grain = int32(len(views)/(workers*64)) + 1
	for w, ch := range originChunks(views, workers) {
		d := &s.deques[w%workers]
		lo := ch[0]
		for i := ch[0]; i < ch[1]; i++ {
			if i+1 == ch[1] || views[i+1].Packet.Origin != views[i].Packet.Origin {
				d.units = append(d.units, unit{int32(lo), int32(i + 1)})
				lo = i + 1
			}
		}
	}
	return s
}

// next returns worker w's next view range. It pops grain-bounded slices off
// the worker's own deque first, then tries each victim in turn: half the
// victim's units when it has several, half its single unit's range when that
// is all that's left. A full empty scan means the batch is drained — units
// only ever move into a live worker's own deque (placed there by that worker
// itself), so no unit can outlive the workers that can see it.
func (s *stealScheduler) next(w int) (int, int, bool) {
	if lo, hi, ok := s.pop(w); ok {
		return lo, hi, true
	}
	n := len(s.deques)
	for off := 1; off < n; off++ {
		if lo, hi, ok := s.steal(w, (w+off)%n); ok {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// pop takes up to grain views from the tail unit of w's own deque.
func (s *stealScheduler) pop(w int) (int, int, bool) {
	d := &s.deques[w]
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.units) == 0 {
		return 0, 0, false
	}
	u := &d.units[len(d.units)-1]
	if u.hi-u.lo > s.grain {
		u.hi -= s.grain
		return int(u.hi), int(u.hi + s.grain), true
	}
	lo, hi := u.lo, u.hi
	d.units = d.units[:len(d.units)-1]
	return int(lo), int(hi), true
}

// steal moves half of victim v's work to worker w. With several units queued
// it takes the head half (the units farthest from the owner's tail); with one
// unit left it splits the range in half, leaving the owner the front. The
// spoils land in w's own deque (so only w hands them out afterwards) and the
// first slice is returned directly.
func (s *stealScheduler) steal(w, v int) (int, int, bool) {
	d := &s.deques[v]
	d.mu.Lock()
	var taken []unit
	switch {
	case len(d.units) >= 2:
		half := (len(d.units) + 1) / 2
		taken = append(taken, d.units[:half]...)
		d.units = append(d.units[:0], d.units[half:]...)
	case len(d.units) == 1:
		u := &d.units[0]
		if u.hi-u.lo >= 2*s.grain {
			mid := u.lo + (u.hi-u.lo)/2
			taken = append(taken, unit{mid, u.hi})
			u.hi = mid
		} else {
			taken = append(taken, *u)
			d.units = d.units[:0]
		}
	}
	d.mu.Unlock()
	if len(taken) == 0 {
		return 0, 0, false
	}
	own := &s.deques[w]
	own.mu.Lock()
	own.units = append(own.units, taken...)
	own.mu.Unlock()
	return s.pop(w)
}

// originChunks cuts views (sorted by origin) into at most want contiguous
// chunks of roughly equal event volume, never splitting an origin across
// chunks.
//
// Contract: the chunks tile [0, len(views)) exactly, in order, each one
// origin-aligned (no origin spans two chunks), and there are between 1 and
// want of them (inputs with a single origin yield exactly one chunk no
// matter how many are asked for — never-split wins). A chunk closes when
// admitting the next origin would push it past the per-chunk volume target,
// and the target is re-derived from the REMAINING volume and chunk budget
// after every cut, so one origin dominating the volume lands in its own
// chunk while the origins around it are still split toward want.
func originChunks(views []*event.PacketView, want int) [][2]int {
	if want < 1 {
		want = 1
	}
	total := 0
	rows := make([]int, len(views))
	for i, v := range views {
		rows[i] = v.TotalEvents()
		total += rows[i]
	}
	// First pass: origin segments (start view index, volume).
	type seg struct {
		start int
		vol   int
	}
	segs := make([]seg, 0, want)
	start := 0
	vol := 0
	for i := range views {
		vol += rows[i]
		if i+1 == len(views) || views[i+1].Packet.Origin != views[i].Packet.Origin {
			segs = append(segs, seg{start, vol})
			start, vol = i+1, 0
		}
	}
	// Second pass: greedy cut with lookahead — close the open chunk before
	// a segment that would overshoot the target, then re-derive the target
	// from what is left.
	chunks := make([][2]int, 0, want)
	lo, acc, remaining := 0, 0, total
	target := remaining/want + 1
	for _, sg := range segs {
		if acc > 0 && acc+sg.vol > target && len(chunks) < want-1 {
			chunks = append(chunks, [2]int{lo, sg.start})
			lo = sg.start
			remaining -= acc
			acc = 0
			target = remaining/(want-len(chunks)) + 1
		}
		acc += sg.vol
	}
	if lo < len(views) {
		chunks = append(chunks, [2]int{lo, len(views)})
	}
	return chunks
}
