package refill

// Equivalence harness for the fused diagnosis pipeline: the driver at every
// fan-out must produce a Result and a Report byte-identical to reconstructing
// first and running the serial diagnosis.BuildConfig afterwards — at the engine,
// through the core Analyzer, and through the facade. The campaign includes
// base-station outages, so the ServerOutage reclassification is exercised end
// to end.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// equivCampaign returns the shared small campaign (same instance the
// benchmarks use; built once per test binary).
func equivCampaign(t testing.TB) *experiments.Campaign {
	t.Helper()
	benchOnce.Do(func() {
		benchCamp, benchErr = experiments.RunCampaign(experiments.SmallCampaign())
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchCamp
}

// checkSameReport asserts got agrees with ref on the raw outcomes AND on
// every read — the fused per-worker outcomes must read exactly as the serial
// build's, and DailyComposition must count its days from the same start.
func checkSameReport(t *testing.T, ref, got *diagnosis.Report, dayLen int64, days int) {
	t.Helper()
	if got.Sink != ref.Sink {
		t.Errorf("Sink = %v, want %v", got.Sink, ref.Sink)
	}
	if !reflect.DeepEqual(ref.Outages, got.Outages) {
		t.Errorf("Outages diverged:\n got %v\nwant %v", got.Outages, ref.Outages)
	}
	if !reflect.DeepEqual(ref.Outcomes, got.Outcomes) {
		t.Error("Outcomes diverged from the serial diagnosis")
	}
	if got.Total() != ref.Total() || got.LossCount() != ref.LossCount() || got.LoopCount() != ref.LoopCount() {
		t.Errorf("totals = (%d,%d,%d), want (%d,%d,%d)",
			got.Total(), got.LossCount(), got.LoopCount(),
			ref.Total(), ref.LossCount(), ref.LoopCount())
	}
	if !reflect.DeepEqual(ref.Breakdown(), got.Breakdown()) {
		t.Errorf("Breakdown = %v, want %v", got.Breakdown(), ref.Breakdown())
	}
	for _, c := range diagnosis.Causes() {
		if ref.LossFraction(c) != got.LossFraction(c) {
			t.Errorf("LossFraction(%v) = %v, want %v", c, got.LossFraction(c), ref.LossFraction(c))
		}
		if ref.SplitBySink(c) != got.SplitBySink(c) {
			t.Errorf("SplitBySink(%v) = %+v, want %+v", c, got.SplitBySink(c), ref.SplitBySink(c))
		}
		if !reflect.DeepEqual(ref.LossesBySite(c), got.LossesBySite(c)) {
			t.Errorf("LossesBySite(%v) diverged", c)
		}
	}
	if !reflect.DeepEqual(ref.SourcePoints(), got.SourcePoints()) {
		t.Error("SourcePoints diverged")
	}
	if !reflect.DeepEqual(ref.PositionPoints(), got.PositionPoints()) {
		t.Error("PositionPoints diverged")
	}
	if !reflect.DeepEqual(ref.DailyComposition(dayLen, days), got.DailyComposition(dayLen, days)) {
		t.Error("DailyComposition diverged")
	}
	if !reflect.DeepEqual(ref.TopLossPositions(5), got.TopLossPositions(5)) {
		t.Error("TopLossPositions(5) diverged")
	}
	if !reflect.DeepEqual(ref.TopLossPositions(1<<20), got.TopLossPositions(1<<20)) {
		t.Error("TopLossPositions (unbounded) diverged")
	}
}

// TestFusedDiagnosisMatchesSerialCampaign pins the fused driver run, as the
// analyzer composes it at every worker count, to the two-pass reference
// (engine Analyze, then diagnosis.BuildConfig) on the full campaign.
func TestFusedDiagnosisMatchesSerialCampaign(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)

	eng, err := engine.New(engine.Options{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	refRes := eng.Analyze(logs)
	checkFlowTotals(t, refRes)
	ref := diagnosis.BuildConfig(refRes.Flows, refRes.Operational, diagnosis.Config{Sink: sink, End: end})
	if ref.Total() == 0 || ref.LossCount() == 0 {
		t.Fatal("degenerate campaign: no classified losses")
	}
	if len(ref.Outages) == 0 {
		t.Fatal("campaign produced no outage windows; ServerOutage path untested")
	}

	opts := core.Options{Sink: sink, End: end}
	check := func(t *testing.T, res *engine.Result, rep *diagnosis.Report) {
		t.Helper()
		if !reflect.DeepEqual(refRes, res) {
			t.Error("reconstruction diverged from serial Analyze")
		}
		checkSameReport(t, ref, rep, dayLen, days)
	}

	analyzer := func(t *testing.T, workers int) *core.Analyzer {
		t.Helper()
		o := opts
		o.Parallelism = workers
		an, err := core.NewAnalyzer(o)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	t.Run("serial", func(t *testing.T) {
		out := analyzer(t, 0).Analyze(logs)
		check(t, out.Result, out.Report)
	})
	// One worker is the serial run: Parallelism 0 and 1 reach the same
	// driver call.
	for _, w := range []int{2, 3, 8} {
		w := w
		t.Run(fmt.Sprintf("parallel-%d", w), func(t *testing.T) {
			out := analyzer(t, w).Analyze(logs)
			check(t, out.Result, out.Report)
		})
	}
	// The deprecated Analyzer.AnalyzeStream alias the benchmark still
	// probes: the same driver reached through core at w workers, and at
	// Parallelism 0, where it alone selects all cores.
	for _, w := range []int{1, 2, 3, 8} {
		w := w
		t.Run(fmt.Sprintf("stream-%d", w), func(t *testing.T) {
			out := analyzeStreamAlias(analyzer(t, w), logs)
			check(t, out.Result, out.Report)
		})
	}
	t.Run("stream", func(t *testing.T) {
		out := analyzeStreamAlias(analyzer(t, 0), logs)
		check(t, out.Result, out.Report)
	})
}

// TestAnalyzerFusedMatchesSeparate pins the core pipeline's fused Report to
// the separate second pass it replaced — diagnosis.BuildConfig over the
// finished Result, computed here — across parallelism settings.
func TestAnalyzerFusedMatchesSeparate(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	cfg := diagnosis.Config{Sink: sink, End: end}

	// Parallelism 1 is the serial run par=0 already covers.
	for _, par := range []int{0, 2, 8} {
		par := par
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			fused, err := core.NewAnalyzer(core.Options{Sink: sink, End: end, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			out := fused.Analyze(logs)
			sep := diagnosis.BuildConfig(out.Result.Flows, out.Result.Operational, cfg)
			checkSameReport(t, sep, out.Report, dayLen, days)
		})
	}
}

// TestFacadeFusionOptions drives the same comparison through the public
// facade options the CLI uses.
func TestFacadeFusionOptions(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)

	fused, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end})
	if err != nil {
		t.Fatal(err)
	}
	out := fused.Analyze(logs)
	sep := diagnosis.BuildConfig(out.Result.Flows, out.Result.Operational, diagnosis.Config{Sink: sink, End: end})
	checkSameReport(t, sep, out.Report, dayLen, days)
}
