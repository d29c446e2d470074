package main

import (
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU
BenchmarkAnalyzeCampaign-8   	       3	 342105525 ns/op	        28296 flows	84874053 B/op	  190633 allocs/op
BenchmarkEngineChain/hops=4-8 	   10000	      1042 ns/op	     512 B/op	       9 allocs/op
PASS
ok  	repro	2.5s
`

func mkResults(allocs map[string]int64) map[string]Result {
	out := make(map[string]Result, len(allocs))
	for n, a := range allocs {
		out[n] = Result{Name: n, AllocsOp: a}
	}
	return out
}

func TestParseStripsCPUSuffix(t *testing.T) {
	got, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	camp := got["BenchmarkAnalyzeCampaign"]
	if camp.AllocsOp != 190633 || camp.BytesOp != 84874053 {
		t.Errorf("campaign allocs = %d, B/op = %v", camp.AllocsOp, camp.BytesOp)
	}
	if camp.NsOp != 342105525 {
		t.Errorf("campaign ns/op = %v, want 342105525", camp.NsOp)
	}
	sub := got["BenchmarkEngineChain/hops=4"]
	if sub.AllocsOp != 9 || sub.NsOp != 1042 {
		t.Errorf("sub-benchmark = %+v", sub)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d entries, want 2: %v", len(got), got)
	}
}

// TestParseCustomMetrics pins the token walk on a line with a rate metric
// between ns/op and the -benchmem columns (where b.ReportMetric puts it),
// and that lines without allocs/op are not treated as results.
func TestParseCustomMetrics(t *testing.T) {
	const out = `BenchmarkAnalyzeSkewed/workers=8-8   5   294217110 ns/op   2919787 events/s   84874053 B/op   190633 allocs/op
BenchmarkNoMem-8   100   1042 ns/op
PASS
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d entries, want only the -benchmem line: %v", len(got), got)
	}
	r := got["BenchmarkAnalyzeSkewed/workers=8"]
	if r.NsOp != 294217110 || r.AllocsOp != 190633 {
		t.Errorf("result = %+v", r)
	}
}

// TestBaselineNamesSurviveCPUSuffix holds every name in the checked-in
// baseline to the naming rule: the line as recorded (at -cpu 1, no suffix)
// and the same line as a multi-core run prints it (name-N) must parse to one
// key, or the guard reports the row missing on one side and unknown on the
// other. A name that itself ends in -<digits> breaks this.
func TestBaselineNamesSurviveCPUSuffix(t *testing.T) {
	raw, err := os.ReadFile("../../bench_baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		plain, ok, err := parseLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		name := strings.Fields(line)[0]
		suffixed, _, err := parseLine(strings.Replace(line, name, name+"-4", 1))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Name != name || suffixed.Name != name {
			t.Errorf("baseline row %s parses to %q, and to %q when run on 4 CPUs", name, plain.Name, suffixed.Name)
		}
		seen[name] = true
	}
	// One of each shape a sub-benchmark name takes here.
	for _, name := range []string{"BenchmarkEngineChain/hops=2", "BenchmarkSnapshot/open-analyze-windowed", "BenchmarkAnalyzeSkewed/workers=8"} {
		if !seen[name] {
			t.Errorf("baseline has no row %s", name)
		}
	}
}

func TestCheckWithinTolerancePasses(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000})
	_, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1099}), 0.10)
	if !ok {
		t.Error("9.9% regression failed under a 10% tolerance")
	}
	_, ok = check(base, mkResults(map[string]int64{"BenchmarkX": 900}), 0.10)
	if !ok {
		t.Error("an improvement failed the guard")
	}
}

func TestCheckRegressionFails(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000})
	entries, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1101}), 0.10)
	if ok {
		t.Errorf("10.1%% regression passed: %v", render(entries))
	}
}

// TestCheckBytesRegressionFails holds B/op to the same tolerance as
// allocs/op: more bytes in as many allocations fail, within the tolerance or
// fewer pass, and the verdict line names B/op.
func TestCheckBytesRegressionFails(t *testing.T) {
	row := func(bytes float64) map[string]Result {
		return map[string]Result{"BenchmarkX": {Name: "BenchmarkX", BytesOp: bytes, AllocsOp: 10}}
	}
	base := row(1000)
	entries, ok := check(base, row(1101), 0.10)
	if ok {
		t.Fatalf("10.1%% B/op regression with flat allocs passed: %v", render(entries))
	}
	want := "FAIL BenchmarkX: 1101 B/op, baseline 1000 (+10.1% > 10% tolerance)"
	if lines := render(entries); len(lines) != 1 || lines[0] != want {
		t.Errorf("lines = %q, want %q", lines, want)
	}
	for _, bytes := range []float64{1099, 500} {
		if entries, ok := check(base, row(bytes), 0.10); !ok {
			t.Errorf("%.0f B/op against a baseline of 1000 failed: %v", bytes, render(entries))
		}
	}
	want = "ok   BenchmarkX: 10 allocs/op, baseline 10 (+0.0%), 500 B/op, baseline 1000 (-50.0%)"
	if entries, _ := check(base, row(500), 0.10); render(entries)[0] != want {
		t.Errorf("line = %q, want %q", render(entries)[0], want)
	}
	// A row that allocated nothing fails once it allocates a byte.
	if entries, ok := check(row(0), row(8), 0.10); ok {
		t.Errorf("8 B/op against a baseline of 0 passed: %v", render(entries))
	}
	// Both regressions are reported.
	both := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", BytesOp: 2000, AllocsOp: 20}}
	if entries, _ := check(base, both, 0.10); len(render(entries)) != 2 {
		t.Errorf("allocs and B/op regressions rendered %q, want one line each", render(entries))
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000, "BenchmarkY": 5})
	entries, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1000}), 0.10)
	if ok {
		t.Errorf("missing baseline benchmark passed: %v", render(entries))
	}
}

func TestCheckUnknownBenchmarkIsNoted(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkX": 1000})
	entries, ok := check(base, mkResults(map[string]int64{"BenchmarkX": 1000, "BenchmarkNew": 7}), 0.10)
	if !ok {
		t.Errorf("benchmark absent from baseline failed the run: %v", render(entries))
	}
	found := false
	for _, l := range render(entries) {
		if strings.Contains(l, "BenchmarkNew") && strings.HasPrefix(l, "note") {
			found = true
		}
	}
	if !found {
		t.Errorf("new benchmark not noted: %v", render(entries))
	}
}

// TestNsDeltaIsInformational pins the ns/op delta behavior: it is computed
// and rendered when both sides carry timing, but a huge wall-time regression
// alone never fails the run.
func TestNsDeltaIsInformational(t *testing.T) {
	base := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 1000, AllocsOp: 100}}
	cur := map[string]Result{"BenchmarkX": {Name: "BenchmarkX", NsOp: 3000, AllocsOp: 100}}
	entries, ok := check(base, cur, 0.10)
	if !ok {
		t.Fatalf("3x ns/op regression with flat allocs failed the guard: %v", render(entries))
	}
	if len(entries) != 1 || entries[0].BaselineNs != 1000 || entries[0].NsDeltaPct != 200 {
		t.Fatalf("entry = %+v, want baseline ns 1000 and +200%% delta", entries[0])
	}
	lines := render(entries)
	want := "ok   BenchmarkX: 100 allocs/op, baseline 100 (+0.0%); 3000 ns/op vs baseline 1000 (+200.0%, non-fatal)"
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("line = %q, want %q", lines, want)
	}
	// Entries without timing on either side keep the bare line.
	bare, _ := check(mkResults(map[string]int64{"BenchmarkY": 5}), mkResults(map[string]int64{"BenchmarkY": 5}), 0.10)
	if l := render(bare); len(l) != 1 || strings.Contains(l[0], "ns/op") {
		t.Errorf("timing-less entry rendered a ns delta: %q", l)
	}
}

// TestRenderFormatsUnchanged keeps the human verdict lines in the shape CI
// logs have always shown.
func TestRenderFormatsUnchanged(t *testing.T) {
	base := mkResults(map[string]int64{"BenchmarkA": 100, "BenchmarkB": 10})
	cur := mkResults(map[string]int64{"BenchmarkA": 200, "BenchmarkC": 1})
	entries, _ := check(base, cur, 0.10)
	lines := render(entries)
	want := []string{
		"FAIL BenchmarkA: 200 allocs/op, baseline 100 (+100.0% > 10% tolerance)",
		"FAIL BenchmarkB: in baseline but missing from input",
		"note BenchmarkC: 1 allocs/op, not in baseline",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
