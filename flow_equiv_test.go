package refill

// Equivalence suite for the arena-backed flow output (the output-side twin
// of soa_equiv_test.go): flows committed into shared flow.Arena chunks must
// be indistinguishable from flows built as standalone slices — deeply equal
// structs, identical reports, byte-identical textual serializations — across
// the serial, parallel and streaming analysis paths.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/flow"
)

// sliceBackedDetour reconstructs every view through AnalyzePacket, whose
// flows are standalone exact-sized heap slices — the pre-arena storage
// layout. Any state the arena commit failed to carry would diverge here.
func sliceBackedDetour(eng *engine.Engine, logs *event.Collection) []*flow.Flow {
	views, _ := event.Partition(logs)
	flows := make([]*flow.Flow, len(views))
	for i, v := range views {
		flows[i] = eng.AnalyzePacket(v)
	}
	return flows
}

// serializeFlows renders flows into one deterministic byte blob: the paper
// notation, the custody path, the visit summaries and the anomalies of every
// flow. Both storage layouts must produce the same bytes.
func serializeFlows(flows []*flow.Flow) string {
	var b strings.Builder
	for _, f := range flows {
		fmt.Fprintf(&b, "%v|%s|%v|%d/%d\n", f.Packet, f.String(), f.Path(), f.InferredCount(), f.LoggedCount())
		for _, v := range f.Visits {
			fmt.Fprintf(&b, "  v %+v\n", v)
		}
		for _, a := range f.Anomalies {
			fmt.Fprintf(&b, "  a %v %s\n", a.Event, a.Reason)
		}
	}
	return b.String()
}

func TestFlowArenaEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		camp, err := RunCampaign(TinyCampaign(seed))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(EngineOptions{Sink: camp.Sink})
		if err != nil {
			t.Fatal(err)
		}
		arena := eng.Analyze(camp.Logs).Flows
		detour := sliceBackedDetour(eng, camp.Logs)
		if len(arena) == 0 {
			t.Fatalf("seed %d: no flows", seed)
		}
		if !reflect.DeepEqual(arena, detour) {
			t.Errorf("seed %d: arena-backed flows differ from the slice-backed detour", seed)
		}
		if a, b := serializeFlows(arena), serializeFlows(detour); a != b {
			t.Errorf("seed %d: serializations differ:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestFlowArenaReportEquivalence runs the whole facade pipeline in every
// parallelism mode and demands identical flows, identical rendered reports
// and identical serialized flow text — the acceptance contract that arena
// commit plus origin-sharded distribution changes nothing observable. Each
// mode runs once more under DropFlows, which must return the same Result
// without flows: counters equal to the sums over the serial flows.
func TestFlowArenaReportEquivalence(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(8))
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	serial := base.Analyze(camp.Logs)
	checkFlowTotals(t, serial.Result)
	wantFlows := serializeFlows(serial.Result.Flows)
	wantReport := RenderBreakdown(serial.Report)
	flowless := *serial.Result
	flowless.Flows = nil
	for _, workers := range []int{1, 2, 4, 7, -1} {
		an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)},
			WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		par := an.Analyze(camp.Logs)
		if !reflect.DeepEqual(serial.Result, par.Result) {
			t.Errorf("workers=%d: parallel result diverged from serial", workers)
		}
		if got := serializeFlows(par.Result.Flows); got != wantFlows {
			t.Errorf("workers=%d: parallel flow serialization diverged", workers)
		}
		if got := RenderBreakdown(par.Report); got != wantReport {
			t.Errorf("workers=%d: parallel report diverged:\n%s\nvs\n%s", workers, got, wantReport)
		}
		dropper, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration), DropFlows: true},
			WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		dropped := dropper.Analyze(camp.Logs)
		if !reflect.DeepEqual(&flowless, dropped.Result) {
			t.Errorf("workers=%d: DropFlows result = %d flows, %d/%d counters; want none and %d/%d", workers,
				len(dropped.Result.Flows), dropped.Result.InferredEvents, dropped.Result.Anomalies,
				flowless.InferredEvents, flowless.Anomalies)
		}
		if !reflect.DeepEqual(serial.Report.Outcomes, dropped.Report.Outcomes) || RenderBreakdown(dropped.Report) != wantReport {
			t.Errorf("workers=%d: DropFlows report diverged", workers)
		}
	}
}

// TestFlowArenaInferredCountConsistency cross-checks the O(1) counters on
// real campaign output against a rescan of Items.
func TestFlowArenaInferredCountConsistency(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineOptions{Sink: camp.Sink})
	if err != nil {
		t.Fatal(err)
	}
	sawInferred := false
	for _, f := range eng.Analyze(camp.Logs).Flows {
		n := 0
		for _, it := range f.Items {
			if it.Inferred {
				n++
			}
		}
		if f.InferredCount() != n {
			t.Fatalf("packet %v: InferredCount = %d, rescan = %d", f.Packet, f.InferredCount(), n)
		}
		if f.LoggedCount() != len(f.Items)-n {
			t.Fatalf("packet %v: LoggedCount = %d, want %d", f.Packet, f.LoggedCount(), len(f.Items)-n)
		}
		sawInferred = sawInferred || n > 0
	}
	if !sawInferred {
		t.Error("campaign produced no inferred items; the check is vacuous")
	}
}
