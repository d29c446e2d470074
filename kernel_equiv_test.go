package refill

// Equivalence suite for the compiled threaded-code kernels: the kernel-walk
// engine every pipeline runs must be indistinguishable from the interpreted
// oracle walk (engine.Options.Interpreted) on real campaign logs — deeply
// equal results, byte-identical flow serializations and rendered reports —
// at every fan-out.

import (
	"reflect"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/engine"
)

func TestKernelEngineEquivalence(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		camp, err := RunCampaign(TinyCampaign(seed))
		if err != nil {
			t.Fatal(err)
		}
		opts := AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)}
		interp, err := engine.New(engine.Options{Sink: camp.Sink, Interpreted: true})
		if err != nil {
			t.Fatal(err)
		}
		want := interp.Analyze(camp.Logs)
		if len(want.Flows) == 0 {
			t.Fatalf("seed %d: no flows", seed)
		}
		wantFlows := serializeFlows(want.Flows)
		wantReport := RenderBreakdown(diagnosis.Build(want.Flows, want.Operational, opts.Sink, opts.End))
		modes := []struct {
			name  string
			extra []AnalyzerOption
		}{
			{"serial", nil},
			{"parallel-2", []AnalyzerOption{WithParallelism(2)}},
			{"parallel-all", []AnalyzerOption{WithParallelism(-1)}},
		}
		for _, m := range modes {
			an, err := NewAnalyzer(opts, m.extra...)
			if err != nil {
				t.Fatal(err)
			}
			out := an.Analyze(camp.Logs)
			if !reflect.DeepEqual(want, out.Result) {
				t.Errorf("seed %d %s: kernel result diverged from the interpreted walk", seed, m.name)
			}
			if got := serializeFlows(out.Result.Flows); got != wantFlows {
				t.Errorf("seed %d %s: kernel flow serialization diverged", seed, m.name)
			}
			if got := RenderBreakdown(out.Report); got != wantReport {
				t.Errorf("seed %d %s: kernel report diverged:\n%s\nvs\n%s", seed, m.name, got, wantReport)
			}
		}
	}
}
