package diagnosis

import "repro/internal/event"

// nc is numCauses as a plain int for table arithmetic.
const nc = int(numCauses)

// Aggregate is the dense, mergeable one-pass reduction behind every Report
// aggregation: cause breakdown, sink split, per-site loss counters, the
// days×causes matrix, loop count, and the Figure 4/5 point sets. The fused
// analysis paths give each worker one Aggregate and merge them at the join;
// every counter is order-independent and the point slices are settled into a
// total order, so the merged result is identical to a serial build.
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
	// site counts outcomes per (position, cause) for real nodes, row-major
	// node*nc+cause, grown to the highest position seen. The Server
	// pseudo-node (0xFFFFFFFE) would explode the dense table and gets its
	// own row; NoNode positions are not site-attributable at all.
	site       []int32
	serverSite [nc]int
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
		if o.Position == event.Server {
			a.serverSite[o.Cause]++
		} else {
			//refill:allow escapecheck — amortized dense-table doubling (siteAt inlines here): O(log maxNode) makes
			a.siteAt(o.Position, o.Cause)
		}
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

// siteAt bumps the (node, cause) cell, growing the dense table to cover the
// node. Growth doubles capacity so ascending node IDs stay amortized O(1).
//
//refill:noalloc — per-loss counter bump; only amortized table growth may allocate
func (a *Aggregate) siteAt(n event.NodeID, c Cause) {
	need := (int(n) + 1) * nc
	if need > len(a.site) {
		if need <= cap(a.site) {
			a.site = a.site[:need]
		} else {
			//refill:allow escapecheck — amortized dense-table doubling: O(log maxNode) makes per aggregate
			grown := make([]int32, need, 2*need)
			copy(grown, a.site)
			a.site = grown
		}
	}
	a.site[int(n)*nc+int(c)]++
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
		a.serverSite[i] += b.serverSite[i]
	}
	if len(b.site) > len(a.site) {
		if len(b.site) <= cap(a.site) {
			a.site = a.site[:len(b.site)]
		} else {
			grown := make([]int32, len(b.site), 2*len(b.site))
			copy(grown, a.site)
			a.site = grown
		}
	}
	for i, v := range b.site {
		a.site[i] += v
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
	out.site = append([]int32(nil), a.site...)
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
