// Command bench is the repository's benchmark: it generates its inputs from
// a seed, builds cmd/refill and cmd/refill-serve from the checkout, drives
// those binaries as child processes, checks every output against an
// in-process reference, and prints every metric by name. See README.md.
//
//	go run -C bench . -workload batch-text -seed 1            end-to-end metrics
//	go run -C bench . -workload batch-text -seed 1 -trace 1   per-layer metrics + bench/out/trace-batch-text.json
//	go run -C bench . -aa                                     A/A check of every workload
//
// BENCHMARK.json runs it through run.sh, which keeps the build inside the
// checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setups is how many times a run sets up, so that setup_s is a median.
const setups = 3

// minIterations is how many fresh child processes a run measures at least.
// The batch workloads make more than that in 10 s anyway; a serve-replay
// iteration takes 2 s and its replays differ by 8 % within a run, so a median
// of four or five moves by itself.
const minIterations = 7

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: batch-text, batch-skew, snapshot-ooc or serve-replay")
		seed    = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds = fs.Float64("seconds", 10, "how long to measure (at least 7 iterations are always made)")
		trace   = fs.Int("trace", 0, "1: the traced in-process run, printing the per-layer metrics")
		aa      = fs.Bool("aa", false, "run every workload twice and fail if two medians differ by more than the metric's bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err == nil {
		err = os.Chdir(root)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *aa {
		return runAA(*seed, *seconds, stdout, stderr)
	}
	buildStart := time.Now()
	bins, err := buildBinaries(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "built refill and refill-serve in %.1f s\n", time.Since(buildStart).Seconds())
	e := &env{bins: bins, sc: fullScale}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	var res *result
	if *trace != 0 {
		res, err = runTraced(e, w, *seed, *seconds, filepath.Join(root, "bench", "out"))
	} else {
		res, err = runEndToEnd(e, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.print(stdout)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// result is one run of one workload.
type result struct {
	workload          string
	events            int
	specs             []metricSpec
	s                 samples
	attempted, failed int
	notes             []string
}

// workDir makes the run's scratch directory inside the checkout.
func workDir(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// runEndToEnd sets the workload up (several times, for a median set-up
// time), builds the reference, discards one warm-up iteration, then measures
// fresh child processes until seconds have passed.
func runEndToEnd(e *env, w workloadDef, seed int64, seconds float64) (*result, error) {
	dir, err := workDir(w.name, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{workload: w.name, specs: endToEnd, s: make(samples)}
	var in *input
	for i := 0; i < setups; i++ {
		start := time.Now()
		if in, err = w.setup(e, seed, dir); err != nil {
			return nil, err
		}
		res.s.add("setup_s", time.Since(start).Seconds())
	}
	ref, err := buildReference(in.c)
	if err != nil {
		return nil, err
	}
	res.events = in.c.logs.TotalEvents()
	if _, err := w.run(in, e, ref); err != nil { // warm-up
		return nil, err
	}
	for start := time.Now(); len(res.s["wall_s"]) < minIterations || time.Since(start).Seconds() < seconds; {
		it, err := w.run(in, e, ref)
		if err != nil {
			return nil, err
		}
		res.attempted += it.ops
		res.failed += it.failed
		res.s.add("wall_s", it.wall.Seconds())
		res.s.add("events_per_s", float64(res.events)/it.wall.Seconds())
		res.s.add("cpu_s", it.usage.cpu.Seconds())
		res.s.add("peak_rss_mb", it.usage.rssMB)
	}
	res.notes = append(res.notes, fmt.Sprintf("cause_agreement %.4f (reference vs simulator truth)", ref.causeAgreement))
	return res, nil
}

// runTraced sets up once, takes the exact counts, then repeats the probe
// suite under the tracer until seconds have passed and writes the spans.
func runTraced(e *env, w workloadDef, seed int64, seconds float64, outDir string) (*result, error) {
	dir, err := workDir(w.name, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := w.setup(e, seed, dir)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(in.c)
	if err != nil {
		return nil, err
	}
	p, err := newProbes(e, in, ref)
	if err != nil {
		return nil, err
	}
	if err := p.counts(); err != nil {
		return nil, err
	}
	res := &result{workload: w.name, specs: perLayer, s: p.s, events: in.c.logs.TotalEvents()}
	for start := time.Now(); p.tr.iter == 0 || time.Since(start).Seconds() < seconds; {
		if err := p.iteration(); err != nil {
			return nil, err
		}
		res.attempted++
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := p.tr.write(path); err != nil {
		return nil, err
	}
	self := selfTimes(p.tr.spans)
	var stages time.Duration
	for _, name := range []string{"event.decode_text", "event.partition", "engine.walk", "diagnosis.build", "report.render"} {
		stages += self[name]
	}
	fused := (p.s.median("core.analyze_serial_s") + p.s.median("event.decode_text_s")) * float64(p.tr.iter)
	res.notes = append(res.notes,
		fmt.Sprintf("%d spans over %d iterations written to %s", len(p.tr.spans), p.tr.iter, path),
		fmt.Sprintf("staged self times sum to %.3f s, fused decode+analyze to %.3f s (ratio %.3f)", stages.Seconds(), fused, stages.Seconds()/fused))
	return res, nil
}

// print writes the table a person reads, then the one JSON line the driver
// reads.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d input events, %d operations attempted, %d failed\n", r.workload, r.events, r.attempted, r.failed)
	fmt.Fprintf(w, "%-32s %-6s %16s %16s %16s %6s\n", "metric", "unit", "value", "p25", "p75", "n")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	for _, m := range r.specs {
		v := sorted(r.s[m.Name])
		metrics[m.Name] = jsonMetric{m.value(v), m.Unit}
		fmt.Fprintf(w, "%-32s %-6s %16.10g %16.10g %16.10g %6d\n", m.Name, m.Unit, m.value(v), quantile(v, 0.25), quantile(v, 0.75), len(v))
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}
