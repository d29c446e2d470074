package main

import (
	"math"
	"sort"
)

// metricSpec names one metric of the benchmark. The two tables below are the
// single source of truth: BENCHMARK.json must list exactly these (a test
// checks it), and a run prints exactly these.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// agg reduces the run's samples to the reported value; nil is median.
	agg func(sorted []float64) float64
}

// value is the number the run reports for the metric. A metric nothing was
// sampled for reads 0 (append_under_advance_p50_ms when no append met an
// advance): the last line must stay valid JSON.
func (m metricSpec) value(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if m.agg != nil {
		return m.agg(s)
	}
	return quantile(s, 0.5)
}

func p95(s []float64) float64 { return quantile(s, 0.95) }

// endToEnd are the metrics a user of refill / refill-serve sees. Every
// workload reports all of them; see README.md for what each one covers on
// each workload. The bounds come from the spreads measured on this box
// (README.md, "Noise"): whole runs of the same commit differ by up to 12 %
// in time, because the machine's own speed drifts from minute to minute.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer are the metrics of the traced run: one timed call (or count) per
// layer boundary, measured over the workload's own events, plus the
// refill-serve latencies and the accuracy score, which the benchmark contract
// keeps out of the gated list (see README.md, "Metrics that are not gated").
var perLayer = []metricSpec{
	{Name: "event.decode_text_s", Unit: "s", Better: "lower"},
	{Name: "event.decode_text_allocs", Unit: "count", Better: "lower"},
	{Name: "event.decode_binary_s", Unit: "s", Better: "lower"},
	{Name: "event.decode_fragment_us_p50", Unit: "us", Better: "lower"},
	{Name: "event.partition_s", Unit: "s", Better: "lower"},
	{Name: "event.partition_allocs", Unit: "count", Better: "lower"},
	{Name: "event.partition_views", Unit: "count", Better: "lower"},
	{Name: "event.snapshot_write_s", Unit: "s", Better: "lower"},
	{Name: "event.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "event.snapshot_open_s", Unit: "s", Better: "lower"},
	{Name: "event.window_plan_s", Unit: "s", Better: "lower"},
	{Name: "event.spread_scan_s", Unit: "s", Better: "lower"},
	{Name: "event.window_feed_s", Unit: "s", Better: "lower"},
	{Name: "event.window_retire_s", Unit: "s", Better: "lower"},
	{Name: "event.pending_rows_peak", Unit: "count", Better: "lower"},
	{Name: "fsm.compile_s", Unit: "s", Better: "lower"},
	{Name: "engine.walk_s", Unit: "s", Better: "lower"},
	{Name: "engine.walk_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.walk_allocs", Unit: "count", Better: "lower"},
	{Name: "engine.inferred_events", Unit: "count", Better: "lower"},
	{Name: "engine.anomalies", Unit: "count", Better: "lower"},
	{Name: "flow.items", Unit: "count", Better: "lower"},
	{Name: "flow.bytes", Unit: "bytes", Better: "lower"},
	{Name: "diagnosis.classify_s", Unit: "s", Better: "lower"},
	{Name: "diagnosis.build_s", Unit: "s", Better: "lower"},
	{Name: "diagnosis.reads_s", Unit: "s", Better: "lower"},
	{Name: "report.render_s", Unit: "s", Better: "lower"},
	{Name: "core.analyze_serial_s", Unit: "s", Better: "lower"},
	{Name: "core.analyze_par_s", Unit: "s", Better: "lower"},
	{Name: "core.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.stream_par_s", Unit: "s", Better: "lower"},
	{Name: "core.snapshot_par_s", Unit: "s", Better: "lower"},
	{Name: "core.fused_residual_s", Unit: "s", Better: "lower"},
	{Name: "ingest.append_s", Unit: "s", Better: "lower"},
	{Name: "ingest.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "ingest.advance_s", Unit: "s", Better: "lower"},
	{Name: "ingest.advance_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.advance_allocs", Unit: "count", Better: "lower"},
	{Name: "ingest.drain_s", Unit: "s", Better: "lower"},
	{Name: "ingest.snapshot_read_us_p50", Unit: "us", Better: "lower"},
	{Name: "ingest.pending_rows_peak", Unit: "count", Better: "lower"},
	{Name: "ingest.finalized_before_drain", Unit: "count", Better: "higher"},
	{Name: "ingest.checkpoint_write_s", Unit: "s", Better: "lower"},
	{Name: "ingest.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.http_overhead_s", Unit: "s", Better: "lower"},
	{Name: "serve.requests", Unit: "count", Better: "lower"},
	{Name: "serve.body_bytes", Unit: "bytes", Better: "lower"},
	{Name: "refill.process_overhead_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "cause_agreement", Unit: "share", Better: "higher"},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_under_advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "advance_p95_ms", Unit: "ms", Better: "lower", agg: p95},
	{Name: "report_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "drain_s", Unit: "s", Better: "lower"},
}

// samples collects a run's raw measurements by metric name.
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

func (s samples) median(name string) float64 { return quantile(sorted(s[name]), 0.5) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of a sorted
// sample (q in [0,1]); an empty sample has no quantile.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// worseBy is how much worse b reads than a, as a share of a, in the metric's
// own direction (negative when b is better).
func (m metricSpec) worseBy(a, b float64) float64 {
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		return -d
	}
	return d
}
