package diagnosis

import (
	"sort"

	"repro/internal/event"
	"repro/internal/flow"
)

// Report aggregates per-packet outcomes into the figure-level views of the
// paper's evaluation. Every aggregation method is a cheap read over an
// Aggregate built in one pass; BuildConfig and the fused engine paths
// populate it at classification time, and hand-assembled reports (public
// fields only) get it built lazily on first read — so the first aggregation
// call on such a report is not safe to race, while pipeline-built reports
// stay read-only.
type Report struct {
	Sink     event.NodeID
	Outages  OutageSchedule
	Outcomes []Outcome

	agg *Aggregate
}

// Config bundles the report-level knobs of a diagnosis build: the sink, the
// campaign end (bounding a trailing open outage window), and the optional
// daily-bin geometry for DailyComposition.
type Config struct {
	Sink event.NodeID
	End  int64
	// Start is the analysis window's start time: the epoch daily bins are
	// counted from (day 0 begins at Start). The zero value reproduces the
	// historical absolute-time binning.
	Start int64
	// DayLen/Days pre-bin the daily composition matrix at build time;
	// Days == 0 leaves DailyComposition computing its bins per call.
	DayLen int64
	Days   int
}

// BuildConfig classifies every flow, reconstructing the outage schedule from
// the operational events (cfg.End bounds a trailing open outage) and
// applying it: one classifier's scratch serves every flow and the aggregate
// is folded as outcomes are produced, so the whole diagnosis performs O(1)
// allocations beyond the outcome slice itself.
func BuildConfig(flows []*flow.Flow, ops []event.Event, cfg Config) *Report {
	sched := OutagesFromOperational(ops, cfg.End)
	cl := NewClassifier()
	agg := NewAggregate(cfg.Sink, cfg.Start, cfg.DayLen, cfg.Days)
	outcomes := make([]Outcome, 0, len(flows))
	for _, f := range flows {
		o := ApplyOutages(cl.Classify(f), sched, cfg.Sink)
		agg.Add(o)
		outcomes = append(outcomes, o)
	}
	return FromParts(cfg.Sink, sched, outcomes, agg)
}

// FromParts assembles a report from pre-classified outcomes — the join step
// of the fused per-worker analysis paths. agg must cover exactly the given
// outcomes (or be nil, in which case it is rebuilt lazily on first
// aggregation read); FromParts settles it, so workers only Add and Merge.
func FromParts(sink event.NodeID, outages OutageSchedule, outcomes []Outcome, agg *Aggregate) *Report {
	if agg != nil {
		agg.Settle()
	}
	return &Report{Sink: sink, Outages: outages, Outcomes: outcomes, agg: agg}
}

// aggregate returns the report's dense aggregate, building it when the
// report was hand-assembled and healing it when Outcomes was re-sliced
// behind the report's back (the length disagreeing is the tell).
func (r *Report) aggregate() *Aggregate {
	if r.agg == nil || r.agg.total != len(r.Outcomes) {
		start, dayLen, days := int64(0), int64(0), 0
		if r.agg != nil {
			start, dayLen, days = r.agg.start, r.agg.dayLen, r.agg.days
		}
		a := NewAggregate(r.Sink, start, dayLen, days)
		for _, o := range r.Outcomes {
			a.Add(o)
		}
		a.Settle()
		r.agg = a
	}
	return r.agg
}

// Total returns the number of diagnosed packets.
func (r *Report) Total() int { return len(r.Outcomes) }

// LossCount returns the number of packets that did not reach the server.
func (r *Report) LossCount() int { return r.aggregate().losses() }

// Breakdown counts outcomes per cause (Figure 9 / Section V-C). Causes with
// no outcomes are absent from the map, matching a direct tally.
func (r *Report) Breakdown() map[Cause]int {
	a := r.aggregate()
	m := make(map[Cause]int, nc)
	for c, n := range a.byCause {
		if n > 0 {
			m[Cause(c)] = n
		}
	}
	return m
}

// LossFraction returns cause's share of all LOST packets (the paper's
// percentages are fractions of losses, not of traffic).
func (r *Report) LossFraction(c Cause) float64 {
	a := r.aggregate()
	losses := a.losses()
	if losses == 0 {
		return 0
	}
	return float64(a.byCause[c]) / float64(losses)
}

// SinkSplit separates a cause's losses at the sink from those elsewhere —
// the paper's "20.0% are lost on the sink node and 12.2% on other nodes".
type SinkSplit struct {
	AtSink, Elsewhere int
}

// SplitBySink computes the sink/elsewhere split for a cause.
func (r *Report) SplitBySink(c Cause) SinkSplit {
	a := r.aggregate()
	return SinkSplit{AtSink: a.atSink[c], Elsewhere: a.byCause[c] - a.atSink[c]}
}

// Point is one marker of the Figure 4/5 scatter plots: a lost packet at a
// time, attributed to a node, colored by cause.
type Point struct {
	Time  int64
	Node  event.NodeID
	Cause Cause
}

// SourcePoints renders losses in the SOURCE view of Figure 4: each lost
// packet is attributed to the node that generated it — the view available
// from collected data alone, where "packets generated at different nodes have
// a similar probability to get lost".
func (r *Report) SourcePoints() []Point { return copyPoints(r.aggregate().srcPts) }

// PositionPoints renders losses in the POSITION view of Figure 5: each lost
// packet is attributed to the node REFILL located the loss at, revealing that
// "loss positions are on a small portion of nodes".
func (r *Report) PositionPoints() []Point { return copyPoints(r.aggregate().posPts) }

// copyPoints hands callers their own slice of the cached, pre-sorted points
// (nil for none, matching the historical append-built result).
func copyPoints(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	out := make([]Point, len(pts))
	copy(out, pts)
	return out
}

// sortPoints orders points by (Time, Node, Cause) — a TOTAL order over every
// Point field, so any two sorts of the same multiset (one worker's outcomes
// or several workers' merged ones) produce identical slices.
func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool { return pointLess(pts[i], pts[j]) })
}

// pointLess is sortPoints' order.
func pointLess(p, q Point) bool {
	if p.Time != q.Time {
		return p.Time < q.Time
	}
	if p.Node != q.Node {
		return p.Node < q.Node
	}
	return p.Cause < q.Cause
}

// DailyComposition bins losses by day and cause (Figure 6). dayLen is the
// day length in time units; days the campaign length. Days are counted from
// the report's configured Start (0 unless the build set Config.Start).
// Packets without a valid loss time are accumulated under day 0. When the
// report was built with matching daily bins (Config.DayLen/Days) the
// pre-binned matrix is read; otherwise the outcomes are scanned per call.
func (r *Report) DailyComposition(dayLen int64, days int) []map[Cause]int {
	out := make([]map[Cause]int, days)
	for i := range out {
		out[i] = make(map[Cause]int)
	}
	a := r.aggregate()
	if a.daily != nil && a.dayLen == dayLen && a.days == days {
		for d := 0; d < days; d++ {
			row := a.daily[d*nc : (d+1)*nc]
			for c, n := range row {
				if n > 0 {
					out[d][Cause(c)] = n
				}
			}
		}
		return out
	}
	for _, o := range r.Outcomes {
		if o.Cause == Delivered {
			continue
		}
		day := 0
		if o.TimeValid && dayLen > 0 {
			day = int((o.LossTime - a.start) / dayLen)
		}
		if day < 0 {
			day = 0
		}
		if day >= days {
			day = days - 1
		}
		out[day][o.Cause]++
	}
	return out
}

// LossesBySite counts losses of the given cause per loss position
// (Figure 8 uses ReceivedLoss; the circle radius is the count).
func (r *Report) LossesBySite(c Cause) map[event.NodeID]int {
	a := r.aggregate()
	m := make(map[event.NodeID]int)
	for _, row := range a.sites {
		if cnt := row.counts[c]; cnt > 0 {
			m[row.node] = int(cnt)
		}
	}
	return m
}

// LoopCount returns how many packets exhibited routing loops.
func (r *Report) LoopCount() int { return r.aggregate().loops }

// TopLossPositions returns the loss positions ordered by descending loss
// count (ties by node ID), up to k entries — the "small portion of nodes
// where a large portion of packets are lost".
func (r *Report) TopLossPositions(k int) []struct {
	Node  event.NodeID
	Count int
} {
	a := r.aggregate()
	var out []struct {
		Node  event.NodeID
		Count int
	}
	for _, row := range a.sites {
		count := 0
		for c, n := range row.counts {
			if Cause(c) != Delivered {
				count += int(n)
			}
		}
		if count > 0 {
			out = append(out, struct {
				Node  event.NodeID
				Count int
			}{row.node, count})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
