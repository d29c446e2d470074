package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
)

// buildOutageCampaign is buildManyOriginCampaign plus a server operational
// log: one closed outage window early, one left open at the end — so the
// fused paths must reconstruct the schedule before any worker commits and
// some sink losses reclassify to ServerOutage.
func buildOutageCampaign(origins int) *event.Collection {
	c := buildManyOriginCampaign(origins)
	c.Add(event.Event{Node: event.Server, Type: event.ServerDown, Time: 500})
	c.Add(event.Event{Node: event.Server, Type: event.ServerUp, Time: 4_000})
	c.Add(event.Event{Node: event.Server, Type: event.ServerDown, Time: 30_000})
	return c
}

// sameDiagnosis pins a fused report to the serial reference: raw outcomes,
// outage schedule, and every read must agree.
func sameDiagnosis(t *testing.T, label string, ref, got *diagnosis.Report) {
	t.Helper()
	if !reflect.DeepEqual(ref.Outages, got.Outages) {
		t.Errorf("%s: outages diverged", label)
	}
	if !reflect.DeepEqual(ref.Outcomes, got.Outcomes) {
		t.Errorf("%s: outcomes diverged", label)
	}
	if !reflect.DeepEqual(ref.Breakdown(), got.Breakdown()) {
		t.Errorf("%s: breakdown = %v, want %v", label, got.Breakdown(), ref.Breakdown())
	}
	if got.LossCount() != ref.LossCount() || got.LoopCount() != ref.LoopCount() {
		t.Errorf("%s: losses/loops = %d/%d, want %d/%d",
			label, got.LossCount(), got.LoopCount(), ref.LossCount(), ref.LoopCount())
	}
	if !reflect.DeepEqual(ref.SourcePoints(), got.SourcePoints()) {
		t.Errorf("%s: source points diverged", label)
	}
	if !reflect.DeepEqual(ref.PositionPoints(), got.PositionPoints()) {
		t.Errorf("%s: position points diverged", label)
	}
	if !reflect.DeepEqual(ref.DailyComposition(10_000, 6), got.DailyComposition(10_000, 6)) {
		t.Errorf("%s: daily composition diverged", label)
	}
	if !reflect.DeepEqual(ref.LossesBySite(diagnosis.ReceivedLoss), got.LossesBySite(diagnosis.ReceivedLoss)) {
		t.Errorf("%s: losses by site diverged", label)
	}
	if !reflect.DeepEqual(ref.TopLossPositions(8), got.TopLossPositions(8)) {
		t.Errorf("%s: top loss positions diverged", label)
	}
}

// TestFusedDiagnosisDeterministic runs the fused driver concurrently with
// itself across worker counts and pins every Result and Report to the serial
// two-pass reference — the -race regression test for the per-worker
// classifier scratch and the indexed outcome writes.
func TestFusedDiagnosisDeterministic(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	c := buildOutageCampaign(40)
	cfg := diagnosis.Config{Sink: 900, End: 60_000}
	serial := eng.Analyze(c)
	ref := diagnosis.BuildConfig(serial.Flows, serial.Operational, cfg)
	if ref.Total() == 0 || ref.LossCount() == 0 {
		t.Fatal("degenerate campaign")
	}
	if len(ref.Outages) != 2 {
		t.Fatalf("outages = %v, want a closed and a trailing open window", ref.Outages)
	}
	if ref.Breakdown()[diagnosis.ServerOutage] == 0 {
		t.Fatal("no ServerOutage outcomes; fixture does not exercise reclassification")
	}

	res, rep := analyzeDiagnosed(eng, c, 1, cfg, true)
	if !reflect.DeepEqual(serial, res) {
		t.Error("fused run diverged from serial")
	}
	sameDiagnosis(t, "serial-fused", ref, rep)

	var wg sync.WaitGroup
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				res, rep := analyzeDiagnosed(eng, c, w, cfg, true)
				if !reflect.DeepEqual(serial, res) {
					t.Errorf("fused run (workers=%d) diverged", w)
				}
				sameDiagnosis(t, "parallel", ref, rep)
			}(workers)
		}
	}
	wg.Wait()
}

// TestOperationalEventsMatchPartition pins OperationalEvents — the merge the
// ingest session builds its outage schedule from — to Partition's byproduct:
// same events, same order, so the session's schedule equals the batch one
// bit for bit.
func TestOperationalEventsMatchPartition(t *testing.T) {
	c := buildOutageCampaign(25)
	_, ops := event.Partition(c)
	if len(ops) == 0 {
		t.Fatal("no operational events in fixture")
	}
	if got := event.OperationalEvents(c); !reflect.DeepEqual(ops, got) {
		t.Errorf("OperationalEvents = %v,\nwant %v", got, ops)
	}
}

// TestFusedDiagnosisEmptyCollection covers the zero-views edge: the driver
// must return an empty (but well-formed) result and report at any fan-out.
func TestFusedDiagnosisEmptyCollection(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewCollection()
	cfg := diagnosis.Config{Sink: 900, End: 1000}
	for _, workers := range []int{1, 4} {
		res, rep := analyzeDiagnosed(eng, c, workers, cfg, true)
		if len(res.Flows) != 0 || rep.Total() != 0 || rep.LossCount() != 0 {
			t.Errorf("workers=%d: non-empty output from empty collection", workers)
		}
	}
}
