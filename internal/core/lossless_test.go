package core

import (
	"reflect"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/sim/network"
	"repro/internal/workload"
)

// TestLosslessVerdicts pins every verdict REFILL gets wrong on perfect
// input: the simulator's complete true event record (every event, on the
// global clock, none dropped) of a small campaign whose base-station
// outages nest. Each off-diagonal (truth cause, REFILL cause) cell is a
// named class with a pinned count, so a change that fixes one class, or
// adds a wrong verdict anywhere, fails here and says which.
func TestLosslessVerdicts(t *testing.T) {
	net, _, cfg, err := workload.Build(workload.CitySeeConfig{
		Nodes: 16, Days: 1, Seed: 4, Period: 10 * sim.Minute,
		SnowDays: []int{}, FixDay: 1, OutageHours: 6, BurstsPerDay: 2,
		LogLossRate: 1e-9, NodeBlackouts: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The network hands every event to each sink on the true clock, before
	// the collector's loss and skew.
	events := event.NewCollection()
	net.AddSink(network.SinkFunc(events.Add))
	truth := net.Run()
	end := int64(cfg.Days) * int64(sim.Day)
	an, err := NewAnalyzer(Options{Sink: net.Sink(), End: end})
	if err != nil {
		t.Fatal(err)
	}
	rep := an.Analyze(events).Report

	type cell struct{ truth, refill diagnosis.Cause }
	want := map[cell]int{
		// Nested outages. The simulator's outage windows overlap and emit
		// nested ServerDown/ServerUp pairs; pairing them by depth keeps
		// the outage open to the last up, so none is read as received.
		{diagnosis.ServerOutage, diagnosis.ReceivedLoss}: 0,
		// The relabels inside a window: ApplyOutages makes every received
		// or acked loss at the sink inside an outage window an outage.
		// A received loss there cannot be told apart in the logs; an
		// acked one can. The nested windows are longer than the first
		// pair's, so they hold more of both.
		{diagnosis.ReceivedLoss, diagnosis.ServerOutage}: 20,
		{diagnosis.AckedLoss, diagnosis.ServerOutage}:    33,
		// Unexplained: REFILL's transit verdicts, and the timeout row.
		{diagnosis.ReceivedLoss, diagnosis.TransitLoss}: 1,
		{diagnosis.ServerOutage, diagnosis.TransitLoss}: 3,
		{diagnosis.TimeoutLoss, diagnosis.DupLoss}:      1,
		{diagnosis.TimeoutLoss, diagnosis.TransitLoss}:  1,
	}

	// The schedule REFILL pairs is the test's own depth-counted reading of
	// the downs and ups, and the campaign does nest them.
	ops := event.OperationalEvents(events)
	sched := diagnosis.OutagesFromOperational(ops, end)
	if nested := nestedOutages(ops).Normalize(); !reflect.DeepEqual(sched, nested) {
		t.Errorf("outage schedule %v, want the depth-counted %v", sched, nested)
	}
	if downs := countType(ops, event.ServerDown); downs <= len(sched) {
		t.Errorf("%d downs over %d outages: no nested pair", downs, len(sched))
	}
	outcomes := make(map[event.PacketID]diagnosis.Outcome, len(rep.Outcomes))
	for _, o := range rep.Outcomes {
		outcomes[o.Packet] = o
	}
	got := make(map[cell]int)
	for id, fate := range truth.Fates {
		if fate.Cause == diagnosis.Unknown {
			continue // censored at the end of the run
		}
		o, ok := outcomes[id]
		if !ok {
			t.Errorf("packet %v: no outcome", id)
			continue
		}
		if o.Cause == fate.Cause {
			continue
		}
		got[cell{fate.Cause, o.Cause}]++
	}
	for c, n := range got {
		if want[c] != n {
			t.Errorf("truth %v, REFILL %v: %d packets, want %d", c.truth, c.refill, n, want[c])
		}
	}
	for c, n := range want {
		if _, ok := got[c]; !ok && n != 0 {
			t.Errorf("truth %v, REFILL %v: no packets, want %d", c.truth, c.refill, n)
		}
	}
}

// countType returns how many of evs have type typ.
func countType(evs []event.Event, typ event.Type) int {
	n := 0
	for _, e := range evs {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// nestedOutages pairs server downs and ups by nesting depth: an outage
// lasts from the down that opens it to the up that closes the last one
// open. It is the test's own reading of the operational events, not
// diagnosis's.
func nestedOutages(ops []event.Event) diagnosis.OutageSchedule {
	var s diagnosis.OutageSchedule
	depth, start := 0, int64(0)
	for _, e := range ops {
		switch {
		case e.Type == event.ServerDown:
			if depth == 0 {
				start = e.Time
			}
			depth++
		case e.Type == event.ServerUp && depth > 0:
			if depth--; depth == 0 {
				s = append(s, diagnosis.Window{Start: start, End: e.Time})
			}
		}
	}
	return s
}
