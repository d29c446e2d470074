// Command benchguard compares a `go test -bench -benchmem` run against a
// checked-in baseline and fails when allocations or allocated bytes regress.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -cpu 1 . | benchguard -baseline bench_baseline.txt
//
// allocs/op and B/op are guarded: unlike ns/op they are deterministic for a
// given code path — independent of the machine, CPU contention, and
// frequency scaling — so a CI runner can enforce a tight threshold without
// flaking. A row may not run more goroutines than Ps: eight workers on one
// P made BenchmarkAnalyzeSkewed's bytes vary by 15% with the scheduler, so
// it runs one worker per P as BenchmarkAnalyzeSkewed/workers=procs. Over
// five consecutive runs of the CI command every row repeated its allocs/op,
// and its B/op to within 48 bytes (16-byte steps). A benchmark regresses
// when its allocs/op or its B/op exceeds the baseline by more than
// -tolerance (default 10%). The ns/op delta against the baseline is printed
// alongside each verdict line; it is informational only and never fails the
// run (time, throughput and memory are measured end to end by bench/, see
// BENCHMARK.json). Benchmarks absent from the baseline are reported but don't
// fail the run (add them to the baseline when they stabilize); baseline
// entries missing from the input fail it, so the guard can't rot silently
// when a benchmark is renamed.
//
// To refresh the baseline after an intentional change, run EXACTLY the
// invocation the CI bench-regression job uses (.github/workflows/ci.yml) —
// allocs/op varies with -benchtime (per-run setup amortizes over more
// iterations), so a baseline recorded at a different iteration count would
// mismatch CI:
//
//	go test -run '^$' \
//	    -bench '^(BenchmarkAnalyzeCampaign|BenchmarkAnalyzeCampaignNoFlows|BenchmarkAnalyzePacket|BenchmarkAnalyzeSkewed|BenchmarkEngineChain|BenchmarkBinaryCodec|BenchmarkTableII|BenchmarkFlowOutput|BenchmarkDiagnosis|BenchmarkSessionIngest|BenchmarkSessionSnapshot|BenchmarkSnapshot)$' \
//	    -benchmem -benchtime 1x -cpu 1 . > bench_baseline.txt
//
// -cpu 1 keeps the recorded names free of a -N suffix. A guarded benchmark's
// own name must not end in -<digits> either (write hops=8, not hops-8): the
// suffix strip below could not tell it from GOMAXPROCS.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's measurements from -benchmem output.
type Result struct {
	Name     string
	NsOp     float64
	BytesOp  float64
	AllocsOp int64
}

// Entry is one line of the verdict: a current Result joined with its
// baseline. Status is "ok", "fail" (regressed or missing from input), or
// "note" (not in the baseline yet).
type Entry struct {
	Result
	BaselineAllocs int64
	DeltaPct       float64
	BaselineBytes  float64
	BytesDeltaPct  float64
	// BaselineNs and NsDeltaPct track wall-time drift against the baseline.
	// Informational only: ns/op never decides pass/fail (see package doc).
	BaselineNs float64
	NsDeltaPct float64
	Status     string
	Detail     string // why allocs/op failed, or why the entry did
	// BytesDetail is why B/op failed ("" if it did not).
	BytesDetail string
}

// gomaxprocsSuffix is the -8 in `BenchmarkName-8`: stripped so baselines
// recorded on one machine compare against runs on another.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseLine token-walks one line of the testing package's result format:
//
//	BenchmarkName-8   3   342105525 ns/op   2751657 events/s   84874053 B/op   190633 allocs/op
//
// After the name and the iteration count the line is (value, unit) pairs:
// ns/op, B/op and allocs/op land in their Result fields, every other unit
// (b.ReportMetric values) is skipped. Lines without allocs/op are not
// benchmark results for our purposes (the guard needs -benchmem output) and
// are skipped, as is anything that doesn't look like a result line at all.
func parseLine(line string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false, nil
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return Result{}, false, nil
	}
	res := Result{Name: gomaxprocsSuffix.ReplaceAllString(f[0], "")}
	seenAllocs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value %q in %q: %w", f[i], line, err)
		}
		switch f[i+1] {
		case "ns/op":
			res.NsOp = v
		case "B/op":
			res.BytesOp = v
		case "allocs/op":
			res.AllocsOp = int64(v)
			seenAllocs = true
		}
	}
	if !seenAllocs {
		return Result{}, false, nil
	}
	return res, true, nil
}

// parse extracts benchmark results from -benchmem output. Repeated runs of
// the same name (e.g. -count=N) keep the last value.
func parse(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			out[res.Name] = res
		}
	}
	return out, sc.Err()
}

// check compares current allocs/op and B/op against the baseline. tolerance is
// fractional (0.10 = 10%). Entries come back in deterministic order: baseline
// benchmarks sorted by name, then not-in-baseline notes.
func check(baseline, current map[string]Result, tolerance float64) ([]Entry, bool) {
	var entries []Entry
	ok := true
	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name].AllocsOp
		cur, found := current[name]
		if !found {
			entries = append(entries, Entry{
				Result: Result{Name: name}, BaselineAllocs: base,
				Status: "fail", Detail: "in baseline but missing from input",
			})
			ok = false
			continue
		}
		delta := 0.0
		if base > 0 {
			delta = 100 * (float64(cur.AllocsOp)/float64(base) - 1)
		}
		e := Entry{Result: cur, BaselineAllocs: base, DeltaPct: delta, Status: "ok"}
		if baseNs := baseline[name].NsOp; baseNs > 0 && cur.NsOp > 0 {
			e.BaselineNs = baseNs
			e.NsDeltaPct = 100 * (cur.NsOp/baseNs - 1)
		}
		if float64(cur.AllocsOp) > float64(base)*(1+tolerance) {
			e.Status = "fail"
			e.Detail = fmt.Sprintf("%+.1f%% > %.0f%% tolerance", delta, tolerance*100)
			ok = false
		}
		if baseBytes := baseline[name].BytesOp; baseBytes > 0 || cur.BytesOp > 0 {
			e.BaselineBytes = baseBytes
			if baseBytes > 0 {
				e.BytesDeltaPct = 100 * (cur.BytesOp/baseBytes - 1)
			}
			if cur.BytesOp > baseBytes*(1+tolerance) {
				e.Status = "fail"
				e.BytesDetail = fmt.Sprintf("%+.1f%% > %.0f%% tolerance", e.BytesDeltaPct, tolerance*100)
				ok = false
			}
		}
		entries = append(entries, e)
	}
	extras := make([]string, 0, len(current))
	for name := range current {
		if _, known := baseline[name]; !known {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		entries = append(entries, Entry{Result: current[name], Status: "note"})
	}
	return entries, ok
}

// render turns entries into the human verdict lines. The trailing ns/op
// delta, when baseline timing is available, is marked non-fatal.
func render(entries []Entry) []string {
	lines := make([]string, 0, len(entries))
	for _, e := range entries {
		ns := ""
		if e.BaselineNs > 0 && e.NsOp > 0 {
			ns = fmt.Sprintf("; %.0f ns/op vs baseline %.0f (%+.1f%%, non-fatal)",
				e.NsOp, e.BaselineNs, e.NsDeltaPct)
		}
		bytes := ""
		if e.BaselineBytes > 0 {
			bytes = fmt.Sprintf(", %.0f B/op, baseline %.0f (%+.1f%%)", e.BytesOp, e.BaselineBytes, e.BytesDeltaPct)
		}
		switch {
		case e.Status == "fail" && e.Detail == "in baseline but missing from input":
			lines = append(lines, fmt.Sprintf("FAIL %s: %s", e.Name, e.Detail))
		case e.Status == "fail":
			if e.Detail != "" {
				lines = append(lines, fmt.Sprintf("FAIL %s: %d allocs/op, baseline %d (%s)%s",
					e.Name, e.AllocsOp, e.BaselineAllocs, e.Detail, ns))
			}
			if e.BytesDetail != "" {
				lines = append(lines, fmt.Sprintf("FAIL %s: %.0f B/op, baseline %.0f (%s)%s",
					e.Name, e.BytesOp, e.BaselineBytes, e.BytesDetail, ns))
			}
		case e.Status == "note":
			lines = append(lines, fmt.Sprintf("note %s: %d allocs/op, not in baseline", e.Name, e.AllocsOp))
		default:
			lines = append(lines, fmt.Sprintf("ok   %s: %d allocs/op, baseline %d (%+.1f%%)%s%s",
				e.Name, e.AllocsOp, e.BaselineAllocs, e.DeltaPct, bytes, ns))
		}
	}
	return lines
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.txt", "baseline benchmark output to compare against")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional allocs/op and B/op regression")
	flag.Parse()

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fatal(err)
	}
	baseline, err := parse(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}
	if len(baseline) == 0 {
		fatal(fmt.Errorf("no benchmark lines in baseline %s", *baselinePath))
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	current, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark lines in input (run with -bench and -benchmem)"))
	}

	entries, ok := check(baseline, current, *tolerance)
	fmt.Println(strings.Join(render(entries), "\n"))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
