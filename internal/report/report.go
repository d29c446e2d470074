// Package report renders the evaluation artifacts — the tables and figure
// series of the paper — as plain text for the experiment harness.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/sim/topology"
)

// Breakdown renders the Figure 9 / Section V-C table: the share of every
// loss cause, with the sink/elsewhere split the paper reports for received
// and acked losses.
func Breakdown(rep *diagnosis.Report) string {
	var b strings.Builder
	losses := rep.LossCount()
	fmt.Fprintf(&b, "packets: %d   delivered: %d   lost: %d (%.2f%%)\n",
		rep.Total(), rep.Total()-losses, losses,
		100*float64(losses)/max1(float64(rep.Total())))
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "cause", "count", "%losses")
	bd := rep.Breakdown()
	for _, c := range diagnosis.Causes() {
		n := bd[c]
		if c == diagnosis.Delivered || n == 0 {
			continue
		}
		// LossFraction's own expression, so the share prints identically.
		fmt.Fprintf(&b, "%-10s %8d %7.1f%%\n", c, n, 100*(float64(n)/float64(losses)))
	}
	for _, c := range []diagnosis.Cause{diagnosis.ReceivedLoss, diagnosis.AckedLoss} {
		s := rep.SplitBySink(c)
		if s.AtSink+s.Elsewhere == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s: %.1f%% at sink, %.1f%% elsewhere (of losses)\n",
			c, 100*float64(s.AtSink)/max1(float64(losses)),
			100*float64(s.Elsewhere)/max1(float64(losses)))
	}
	return b.String()
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// Daily renders Figure 6: per-day composition of loss causes.
func Daily(rep *diagnosis.Report, dayLen int64, days int) string {
	comp := rep.DailyComposition(dayLen, days)
	causes := activeCauses(rep)
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %7s", "day", "losses")
	for _, c := range causes {
		fmt.Fprintf(&b, " %9s", c)
	}
	b.WriteByte('\n')
	for d, m := range comp {
		total := 0
		//refill:allow maprange — commutative sum; order cannot leak
		for _, n := range m {
			total += n
		}
		fmt.Fprintf(&b, "%-4d %7d", d+1, total)
		for _, c := range causes {
			if total == 0 {
				fmt.Fprintf(&b, " %8.1f%%", 0.0)
			} else {
				fmt.Fprintf(&b, " %8.1f%%", 100*float64(m[c])/float64(total))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func activeCauses(rep *diagnosis.Report) []diagnosis.Cause {
	var out []diagnosis.Cause
	bd := rep.Breakdown()
	for _, c := range diagnosis.Causes() {
		if c != diagnosis.Delivered && bd[c] > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Scatter renders the Figure 4/5 series as time-binned rows: per bin, the
// count of lost packets per cause and how many distinct nodes the losses
// attribute to. Figure 4 passes source-view points, Figure 5 position-view
// points; the "distinct nodes" column is what contrasts them — sources are
// spread wide, positions concentrate.
func Scatter(points []diagnosis.Point, bin int64, label string) string {
	if bin <= 0 {
		bin = int64(sim.Hour)
	}
	type binStat struct {
		causes map[diagnosis.Cause]int
		nodes  map[event.NodeID]bool
	}
	bins := make(map[int64]*binStat)
	causesSeen := make(map[diagnosis.Cause]bool)
	for _, p := range points {
		k := p.Time / bin
		bs := bins[k]
		if bs == nil {
			bs = &binStat{causes: make(map[diagnosis.Cause]int), nodes: make(map[event.NodeID]bool)}
			bins[k] = bs
		}
		bs.causes[p.Cause]++
		bs.nodes[p.Node] = true
		causesSeen[p.Cause] = true
	}
	var keys []int64
	//refill:allow maprange — keys are collected then sorted before any output
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var causes []diagnosis.Cause
	for _, c := range diagnosis.Causes() {
		if causesSeen[c] {
			causes = append(causes, c)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d lost packets in %d bins\n", label, len(points), len(keys))
	fmt.Fprintf(&b, "%-8s %6s %6s", "bin", "lost", "nodes")
	for _, c := range causes {
		fmt.Fprintf(&b, " %9s", c)
	}
	b.WriteByte('\n')
	for _, k := range keys {
		bs := bins[k]
		total := 0
		//refill:allow maprange — commutative sum; order cannot leak
		for _, n := range bs.causes {
			total += n
		}
		fmt.Fprintf(&b, "%-8d %6d %6d", k, total, len(bs.nodes))
		for _, c := range causes {
			fmt.Fprintf(&b, " %9d", bs.causes[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Spatial renders Figure 8: received-loss counts per loss site with node
// coordinates; the sink is marked (the paper draws it as a triangle).
func Spatial(rep *diagnosis.Report, topo *topology.Topology, top int) string {
	sites := rep.LossesBySite(diagnosis.ReceivedLoss)
	type row struct {
		node  event.NodeID
		count int
	}
	var rows []row
	//refill:allow maprange — rows are collected then sorted before any output
	for n, c := range sites {
		rows = append(rows, row{n, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].node < rows[j].node
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %s\n", "node", "x", "y", "recvloss", "")
	for _, r := range rows {
		x, y, _ := topo.Position(r.node)
		mark := ""
		if r.node == topo.Sink {
			mark = "<- SINK"
		}
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %8d %s\n", r.node, x, y, r.count, mark)
	}
	return b.String()
}

// AccuracyRow is one analyzer's scored accuracy, for comparison tables.
type AccuracyRow struct {
	Name string
	Acc  core.Accuracy
}

// AccuracyTable renders an analyzer comparison (experiment E-A1).
func AccuracyTable(rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %8s %8s %8s\n",
		"analyzer", "coverage", "delivrd", "cause", "position", "lostBoth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8.1f%% %8.1f%% %7.1f%% %7.1f%% %8d\n",
			r.Name, 100*r.Acc.Coverage(), 100*r.Acc.DeliveredRate(),
			100*r.Acc.CauseRate(), 100*r.Acc.PositionRate(), r.Acc.LostBoth)
	}
	return b.String()
}
