package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke drives both real binaries through all four workload drivers at
// a scale small enough for go test, and the traced run over one of them: the
// correctness gate must pass and every metric must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The scratch directory is relative to the checkout, like in a real run.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	bins, err := buildBinaries(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &env{bins: bins, sc: smokeScale}
	for _, w := range workloads {
		res, err := runEndToEnd(e, w, 11, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, endToEnd, minIterations)
	}

	w, _ := findWorkload("serve-replay")
	out := t.TempDir()
	res, err := runTraced(e, w, 11, 0, out)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer, 1)
	data, err := os.ReadFile(filepath.Join(out, "trace-serve-replay.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "iteration" || tr.Spans[0].Parent != -1 {
		t.Errorf("trace does not start with an iteration's root span: %+v", tr.Spans[:min(3, len(tr.Spans))])
	}
	for _, layer := range []string{"event.decode_text", "event.partition", "engine.walk", "diagnosis.build", "ingest.advance", "event.window_feed"} {
		if tr.Self[layer] <= 0 {
			t.Errorf("no self time for %s in the trace", layer)
		}
	}
}

// checkResult asserts the correctness gate and that the printed result is
// what the driver expects: a last line of JSON naming exactly the metrics.
func checkResult(t *testing.T, res *result, specs []metricSpec, minOps int) {
	t.Helper()
	if res.failed != 0 || res.attempted < minOps {
		t.Errorf("%s: %d attempted, %d failed", res.workload, res.attempted, res.failed)
	}
	var b strings.Builder
	res.print(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", res.workload, err, lines[len(lines)-1])
	}
	if !got.Correct || got.Attempted != res.attempted || len(got.Metrics) != len(specs) {
		t.Errorf("%s: result line %+v", res.workload, got)
	}
	for _, m := range specs {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s reads %+v", res.workload, m.Name, v)
		}
		if len(res.s[m.Name]) == 0 && m.Name != "append_under_advance_p50_ms" {
			t.Errorf("%s: no sample for %s", res.workload, m.Name)
		}
	}
}
