package diagnosis

import (
	"cmp"
	"slices"

	"repro/internal/event"
)

// nc is numCauses as a plain int for table arithmetic.
const nc = int(numCauses)

// Aggregate is the mergeable one-pass reduction behind every Report
// aggregation: cause breakdown, sink split, per-site loss counters, the
// days×causes matrix, loop count, and the Figure 4/5 point sets. The fused
// analysis paths give each worker one Aggregate and merge them at the join;
// every counter is order-independent and the point slices are settled into a
// total order, so the merged result is identical to a serial build.
//
// An Aggregate is derived state, a fold of outcomes: the same outcomes under
// the same sink, start and daily bins settle into the same aggregate in any
// order, so nothing persists one — a resumed session folds its restored
// outcomes again under its own config. Add is safe for every outcome: memory
// grows with the distinct loss positions, never with their IDs.
//
// An Aggregate is not safe for concurrent use.
type Aggregate struct {
	sink   event.NodeID
	start  int64
	dayLen int64
	days   int

	total int
	loops int
	// byCause counts every outcome; atSink the subset located at the sink.
	byCause [nc]int
	atSink  [nc]int
	// daily is the losses-only days×causes matrix (row-major, day*nc+cause),
	// nil when the aggregate was built without daily bins.
	daily []int
	// sites counts outcomes per cause at each loss position seen, one row
	// per position in ascending order, Server included: the table grows with
	// the distinct positions, whatever their IDs. NoNode positions are not
	// site-attributable at all.
	sites []siteRow
	// srcPts / posPts collect the Figure 4 (origin-attributed) and Figure 5
	// (position-attributed) loss points. Their first srcSettled / posSettled
	// points are in sorted order; Settle sorts only what was appended since.
	srcPts, posPts         []Point
	srcSettled, posSettled int
}

// NewAggregate returns an empty aggregate for a report rooted at sink.
// dayLen/days pre-bin the daily composition matrix; days == 0 disables it
// (DailyComposition then falls back to scanning the outcomes). start is the
// daily-bin epoch: day 0 begins at start (0 reproduces the historical
// absolute-time binning).
func NewAggregate(sink event.NodeID, start, dayLen int64, days int) *Aggregate {
	a := &Aggregate{sink: sink, start: start, dayLen: dayLen, days: days}
	if days > 0 {
		a.daily = make([]int, days*nc)
	}
	return a
}

// Add folds one outcome in. Outcomes must already be outage-adjusted
// (ApplyOutages) — the aggregate records causes as given.
//
//refill:noalloc — fused per-commit path; point collection grows only via append
func (a *Aggregate) Add(o Outcome) {
	a.total++
	a.byCause[o.Cause]++
	if o.Loop {
		a.loops++
	}
	if o.Position == a.sink {
		a.atSink[o.Cause]++
	}
	if o.Position != event.NoNode {
		a.site(o.Position).counts[o.Cause]++
	}
	if o.Cause == Delivered {
		return
	}
	if a.daily != nil {
		day := 0
		if o.TimeValid && a.dayLen > 0 {
			day = int((o.LossTime - a.start) / a.dayLen)
		}
		if day < 0 {
			day = 0
		}
		if day >= a.days {
			day = a.days - 1
		}
		a.daily[day*nc+int(o.Cause)]++
	}
	if o.TimeValid {
		a.srcPts = append(a.srcPts, Point{Time: o.LossTime, Node: o.Packet.Origin, Cause: o.Cause})
		if o.Position != event.NoNode {
			a.posPts = append(a.posPts, Point{Time: o.LossTime, Node: o.Position, Cause: o.Cause})
		}
	}
}

// siteRow counts outcomes per cause at one loss position.
type siteRow struct {
	node   event.NodeID
	counts [nc]int32
}

// site returns n's row, inserting an empty one in order at n's first
// sighting.
//
//refill:noalloc — per-outcome row lookup; only a new position's insert may allocate
func (a *Aggregate) site(n event.NodeID) *siteRow {
	i, found := slices.BinarySearchFunc(a.sites, n, func(r siteRow, n event.NodeID) int { return cmp.Compare(r.node, n) })
	if !found {
		//refill:allow escapecheck — a position's first sighting: one insert per distinct position
		a.sites = slices.Insert(a.sites, i, siteRow{node: n})
	}
	return &a.sites[i]
}

// Merge folds b into a. Both sides must share the same sink and daily-bin
// configuration (the fused paths construct every worker's aggregate from one
// config); b is left untouched.
func (a *Aggregate) Merge(b *Aggregate) {
	a.total += b.total
	a.loops += b.loops
	for i := 0; i < nc; i++ {
		a.byCause[i] += b.byCause[i]
		a.atSink[i] += b.atSink[i]
	}
	for _, r := range b.sites {
		row := a.site(r.node)
		for c, v := range r.counts {
			row.counts[c] += v
		}
	}
	if len(b.daily) > len(a.daily) {
		grown := make([]int, len(b.daily))
		copy(grown, a.daily)
		a.daily = grown
	}
	for i, v := range b.daily {
		a.daily[i] += v
	}
	a.srcPts = append(a.srcPts, b.srcPts...)
	a.posPts = append(a.posPts, b.posPts...)
}

// Clone returns an independent deep copy — the ingest session snapshots its
// running aggregate this way, so a live Report never shares storage with the
// still-accumulating original. The copy is as settled as a is.
func (a *Aggregate) Clone() *Aggregate {
	out := *a
	out.daily = append([]int(nil), a.daily...)
	out.sites = slices.Clone(a.sites)
	out.srcPts = append([]Point(nil), a.srcPts...)
	out.posPts = append([]Point(nil), a.posPts...)
	return &out
}

// Settle puts the point sets into their presentation order. The report
// constructors call it after all Adds/Merges; a running aggregate that is
// read many times (the ingest session's) calls it before each Clone, so every
// read sorts only the points added since the last one and merges them in.
func (a *Aggregate) Settle() {
	a.srcSettled = settlePoints(a.srcPts, a.srcSettled)
	a.posSettled = settlePoints(a.posPts, a.posSettled)
}

// settlePoints sorts pts, whose first settled points are already sorted, and
// returns len(pts). With nothing settled it sorts in place; otherwise it
// sorts the tail, copies it out and merges it backwards into the prefix, so
// every slot is written only after it was read.
func settlePoints(pts []Point, settled int) int {
	switch settled {
	case len(pts):
		return settled
	case 0:
		sortPoints(pts)
		return len(pts)
	}
	tail := append([]Point(nil), pts[settled:]...)
	sortPoints(tail)
	i, j := settled-1, len(tail)-1
	for k := len(pts) - 1; j >= 0 && i >= 0; k-- {
		if pointLess(tail[j], pts[i]) {
			pts[k] = pts[i]
			i--
		} else {
			pts[k] = tail[j]
			j--
		}
	}
	copy(pts, tail[:j+1])
	return len(pts)
}

// losses is the number of non-Delivered outcomes.
func (a *Aggregate) losses() int { return a.total - a.byCause[Delivered] }
