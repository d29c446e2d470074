package diagnosis

import (
	"cmp"
	"slices"

	"repro/internal/event"
	"repro/internal/flow"
)

// Report holds per-packet outcomes and reads the figure-level views of the
// paper's evaluation from them. Outcomes is the report's only state: every
// read folds the outcomes when it is called, so a report whose outcomes were
// edited or re-sliced reads exactly what it holds. No read writes the report,
// so reads may run concurrently.
type Report struct {
	Sink     event.NodeID
	Outages  OutageSchedule
	Outcomes []Outcome

	// start is the epoch DailyComposition counts days from (Config.Start);
	// 0 for a hand-assembled report.
	start int64
}

// Config bundles the report-level knobs of a diagnosis build: the sink, the
// campaign end (bounding a trailing open outage window) and the epoch
// DailyComposition counts days from.
type Config struct {
	Sink event.NodeID
	End  int64
	// Start is the analysis window's start time: the epoch daily bins are
	// counted from (day 0 begins at Start). The zero value reproduces the
	// historical absolute-time binning.
	Start int64
	// DayLen and Days are ignored: DailyComposition takes the day length
	// and count as arguments and bins the outcomes when it is called.
	//
	// Deprecated: pass the day length and count to DailyComposition.
	DayLen int64
	// Deprecated: see DayLen.
	Days int
}

// BuildConfig classifies every flow, reconstructing the outage schedule from
// the operational events (cfg.End bounds a trailing open outage) and
// applying it: one classifier's scratch serves every flow, so the whole
// diagnosis performs O(1) allocations beyond the outcome slice itself.
func BuildConfig(flows []*flow.Flow, ops []event.Event, cfg Config) *Report {
	sched := OutagesFromOperational(ops, cfg.End)
	cl := NewClassifier()
	outcomes := make([]Outcome, len(flows))
	for i, f := range flows {
		outcomes[i] = ApplyOutages(cl.Classify(f), sched, cfg.Sink)
	}
	return FromParts(cfg.Sink, cfg.Start, sched, outcomes)
}

// FromParts assembles a report from pre-classified, outage-adjusted
// outcomes — the join step of the fused analysis paths. start is the epoch
// DailyComposition counts days from (Config.Start).
func FromParts(sink event.NodeID, start int64, outages OutageSchedule, outcomes []Outcome) *Report {
	return &Report{Sink: sink, Outages: outages, Outcomes: outcomes, start: start}
}

// Total returns the number of diagnosed packets.
func (r *Report) Total() int { return len(r.Outcomes) }

// LossCount returns the number of packets that did not reach the server.
func (r *Report) LossCount() int { return len(r.Outcomes) - r.byCause()[Delivered] }

// byCause counts the outcomes per cause.
func (r *Report) byCause() (n [numCauses]int) {
	for _, o := range r.Outcomes {
		n[o.Cause]++
	}
	return n
}

// Breakdown counts outcomes per cause (Figure 9 / Section V-C). Causes with
// no outcomes are absent from the map, matching a direct tally.
func (r *Report) Breakdown() map[Cause]int {
	counts := r.byCause()
	m := make(map[Cause]int, numCauses)
	for c, n := range counts {
		if n > 0 {
			m[Cause(c)] = n
		}
	}
	return m
}

// LossFraction returns cause's share of all LOST packets (the paper's
// percentages are fractions of losses, not of traffic).
func (r *Report) LossFraction(c Cause) float64 {
	counts := r.byCause()
	losses := len(r.Outcomes) - counts[Delivered]
	if losses == 0 {
		return 0
	}
	return float64(counts[c]) / float64(losses)
}

// SinkSplit separates a cause's losses at the sink from those elsewhere —
// the paper's "20.0% are lost on the sink node and 12.2% on other nodes".
type SinkSplit struct {
	AtSink, Elsewhere int
}

// SplitBySink computes the sink/elsewhere split for a cause.
func (r *Report) SplitBySink(c Cause) SinkSplit {
	var s SinkSplit
	for _, o := range r.Outcomes {
		switch {
		case o.Cause != c:
		case o.Position == r.Sink:
			s.AtSink++
		default:
			s.Elsewhere++
		}
	}
	return s
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
func (r *Report) SourcePoints() []Point { return r.points(false) }

// PositionPoints renders losses in the POSITION view of Figure 5: each lost
// packet is attributed to the node REFILL located the loss at, revealing that
// "loss positions are on a small portion of nodes".
func (r *Report) PositionPoints() []Point { return r.points(true) }

// points returns one point per loss with a valid time — attributed to its
// origin, or atPosition to its loss position when that is known — in the
// order of pointCmp, nil for none. It counts before it allocates, so the
// result is exactly sized.
func (r *Report) points(atPosition bool) []Point {
	n := 0
	for _, o := range r.Outcomes {
		if _, ok := point(o, atPosition); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for _, o := range r.Outcomes {
		if p, ok := point(o, atPosition); ok {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, pointCmp)
	return out
}

// point is o's Figure 4 (or, atPosition, Figure 5) marker, if it has one.
func point(o Outcome, atPosition bool) (Point, bool) {
	if o.Cause == Delivered || !o.TimeValid {
		return Point{}, false
	}
	node := o.Packet.Origin
	if atPosition {
		node = o.Position
	}
	return Point{Time: o.LossTime, Node: node, Cause: o.Cause}, !atPosition || node != event.NoNode
}

// pointCmp orders points by (Time, Node, Cause) — a TOTAL order over every
// Point field, so any two sorts of the same points produce identical slices
// whatever order the outcomes are in.
func pointCmp(p, q Point) int {
	return cmp.Or(cmp.Compare(p.Time, q.Time), cmp.Compare(p.Node, q.Node), cmp.Compare(p.Cause, q.Cause))
}

// DailyComposition bins losses by day and cause (Figure 6), scanning the
// outcomes. dayLen is the day length in time units; days the campaign
// length (nil for days < 1). Days are counted from the report's configured
// Start (0 unless the build set Config.Start); a loss before Start or
// without a valid loss time counts under day 0, and one past the last day
// under the last day.
func (r *Report) DailyComposition(dayLen int64, days int) []map[Cause]int {
	if days < 1 {
		return nil
	}
	out := make([]map[Cause]int, days)
	for i := range out {
		out[i] = make(map[Cause]int)
	}
	for _, o := range r.Outcomes {
		if o.Cause == Delivered {
			continue
		}
		day := 0
		if o.TimeValid && dayLen > 0 {
			day = int((o.LossTime - r.start) / dayLen)
		}
		day = min(max(day, 0), days-1)
		out[day][o.Cause]++
	}
	return out
}

// LossesBySite counts losses of the given cause per loss position
// (Figure 8 uses ReceivedLoss; the circle radius is the count).
func (r *Report) LossesBySite(c Cause) map[event.NodeID]int {
	m := make(map[event.NodeID]int)
	for _, o := range r.Outcomes {
		if o.Cause == c && o.Position != event.NoNode {
			m[o.Position]++
		}
	}
	return m
}

// LoopCount returns how many packets exhibited routing loops.
func (r *Report) LoopCount() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Loop {
			n++
		}
	}
	return n
}

// TopLossPositions returns the loss positions ordered by descending loss
// count (ties by node ID), up to k entries — the "small portion of nodes
// where a large portion of packets are lost". The counts are tallied in the
// result itself, kept in node order while they are counted.
func (r *Report) TopLossPositions(k int) []struct {
	Node  event.NodeID
	Count int
} {
	type site = struct {
		Node  event.NodeID
		Count int
	}
	var out []site
	for _, o := range r.Outcomes {
		if o.Cause == Delivered || o.Position == event.NoNode {
			continue
		}
		i, found := slices.BinarySearchFunc(out, o.Position, func(s site, n event.NodeID) int { return cmp.Compare(s.Node, n) })
		if !found {
			out = slices.Insert(out, i, site{Node: o.Position})
		}
		out[i].Count++
	}
	slices.SortFunc(out, func(a, b site) int { return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Node, b.Node)) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}
