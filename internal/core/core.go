// Package core assembles the complete REFILL pipeline — merge per-node logs,
// run the connected inference engines, reconstruct per-packet event flows,
// and derive the diagnosis report — and provides the accuracy scoring used to
// evaluate reconstructions against simulator ground truth.
package core

import (
	"fmt"

	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
	"repro/internal/ingest"
	"repro/internal/sim/network"
)

// Options configures an Analyzer.
//
// Zero-value footguns: the zero Sink is event.NoNode and NewAnalyzer rejects
// it — there is no default sink; set Sink explicitly. The zero End leaves a
// trailing server outage open-ended in the report — set Start/End when
// outages or daily bins matter; an End below the data makes sessions hold
// finalization while an outage is open.
type Options struct {
	// Sink is the collection-tree root (required).
	Sink event.NodeID
	// Protocol overrides the FSM templates (default fsm.DefaultCTP()).
	Protocol *fsm.Protocol
	// Start/End bound the analysis window [Start, End): End bounds a
	// trailing open outage when building the report; Start is the epoch
	// daily bins count from (day 0 begins at Start) and defaults to
	// absolute time zero.
	Start int64
	End   int64
	// DisableIntra / DisableInter are the ablation switches.
	DisableIntra, DisableInter bool
	// Parallelism sets the reconstruction fan-out under ONE rule for every
	// path: n > 0 uses exactly n workers, n < 0 uses all cores, and 0
	// selects the path's default — serial for the batch Analyze (the
	// reproducibility baseline) and all cores for the throughput paths
	// (AnalyzeSnapshot and Session ingest). Output is byte-identical across
	// all settings — flows stay in packet-ID order.
	Parallelism int
	// DayLen and Days are ignored: Report.DailyComposition takes the day
	// length and count as arguments and bins the outcomes when called.
	//
	// Deprecated: pass the day length and count to DailyComposition. Kept
	// for the benchmark only.
	DayLen int64
	// Deprecated: see DayLen.
	Days int
	// DropFlows makes Analyze keep no flows: Output.Result.Flows is nil,
	// each worker builds every flow into one small recycled arena and drops
	// it once counted and classified, and the Report and Result counters
	// (InferredEvents, Anomalies) are unchanged. The zero value keeps every
	// flow. AnalyzeSnapshot follows its SessionConfig.RetainFlows instead.
	DropFlows bool
}

// Option is a functional override applied on top of an Options struct by
// NewAnalyzer.
//
// Deprecated: set the Options fields instead. Option, WithParallelism,
// WithDailyBins and NewAnalyzer's variadic parameter remain only because the
// benchmark's reference analyzer is built with them.
type Option func(*Options)

// WithParallelism sets Options.Parallelism.
//
// Deprecated: set Options.Parallelism. Kept for the benchmark only.
func WithParallelism(workers int) Option {
	return func(o *Options) { o.Parallelism = workers }
}

// WithDailyBins sets Options.DayLen and Options.Days, which are ignored.
//
// Deprecated: pass the day length and count to Report.DailyComposition.
// Kept for the benchmark only.
func WithDailyBins(dayLen int64, days int) Option {
	return func(o *Options) { o.DayLen, o.Days = dayLen, days }
}

// Analyzer is the ready-to-run REFILL pipeline.
type Analyzer struct {
	eng  *engine.Engine
	opts Options
}

// NewAnalyzer validates opts and builds the pipeline. The deprecated
// functional options, if any, are applied to opts in order first.
func NewAnalyzer(opts Options, extra ...Option) (*Analyzer, error) {
	for _, fn := range extra {
		fn(&opts)
	}
	if opts.Sink == event.NoNode {
		return nil, fmt.Errorf("core: no sink configured — the zero Options has no default sink; set Options.Sink")
	}
	eng, err := engine.New(engine.Options{
		Protocol:     opts.Protocol,
		Sink:         opts.Sink,
		DisableIntra: opts.DisableIntra,
		DisableInter: opts.DisableInter,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Analyzer{eng: eng, opts: opts}, nil
}

// Output bundles everything one analysis produces.
type Output struct {
	// Result carries the reconstructed flows (none under DropFlows, or on
	// AnalyzeSnapshot without RetainFlows), the operational events and the
	// inferred-event and anomaly totals.
	Result *engine.Result
	// Report is the diagnosis over those flows.
	Report *diagnosis.Report
}

// Flow returns the reconstructed flow for a packet, nil if unknown or if
// the analysis kept no flows.
func (o *Output) Flow(id event.PacketID) *flow.Flow {
	for _, f := range o.Result.Flows {
		if f.Packet == id {
			return f
		}
	}
	return nil
}

// diagConfig is the analyzer's report-level configuration.
func (a *Analyzer) diagConfig() diagnosis.Config {
	o := a.opts
	return diagnosis.Config{Sink: o.Sink, Start: o.Start, End: o.End}
}

// SessionConfig tunes NewSession beyond the analyzer's own options. See
// ingest.Config for the field semantics; the zero value is a sensible
// service default (zero horizon, flows discarded).
type SessionConfig struct {
	// Horizon bounds the within-packet timestamp spread (cross-node clock
	// skew plus packet lifetime); finalization waits it out.
	Horizon int64
	// RetainFlows keeps finalized flows for Drain's Result.
	RetainFlows bool
}

// NewSession opens a resident ingest session running this analyzer's
// pipeline incrementally: Append per-node log fragments, Advance the
// watermark to finalize completed packets, Snapshot live reports, Drain for
// the final batch-identical Result and Report. Worker fan-out follows
// Options.Parallelism (0 selects all cores — the session is a throughput
// path).
func (a *Analyzer) NewSession(sc SessionConfig) (*ingest.Session, error) {
	return ingest.NewSession(a.sessionConfig(sc))
}

// ResumeSession rebuilds a session from a checkpoint written by
// Session.WriteCheckpoint. The analyzer's sink and sc.Horizon must match
// the checkpointed session's (verified against the file); the resumed
// session continues exactly where the checkpointed one stopped.
func (a *Analyzer) ResumeSession(sc SessionConfig, path string) (*ingest.Session, error) {
	return ingest.Resume(a.sessionConfig(sc), path)
}

func (a *Analyzer) sessionConfig(sc SessionConfig) ingest.Config {
	return ingest.Config{
		Engine:      a.eng,
		Diagnosis:   a.diagConfig(),
		Workers:     a.workers(0),
		Horizon:     sc.Horizon,
		RetainFlows: sc.RetainFlows,
	}
}

// workers maps Options.Parallelism onto the engine's convention (n > 0
// exactly n, <= 0 all cores); dflt is what the calling path does at 0.
func (a *Analyzer) workers(dflt int) int {
	switch {
	case a.opts.Parallelism == 0:
		return dflt
	case a.opts.Parallelism < 0:
		return 0
	}
	return a.opts.Parallelism
}

// analyze reconstructs and diagnoses c in one fused driver run over workers
// workers (<= 0 selects GOMAXPROCS), keeping the flows only when keepFlows.
// The partition before the walk runs on the same workers
// (event.PartitionWorkers), and the outage schedule is reconstructed up front
// from the operational events it sets aside. Without keepFlows the Result
// carries no flows (each worker recycles one small arena) and is otherwise
// the same, counters included; the Report matches running
// diagnosis.BuildConfig over the flows either way, for every worker count.
func (a *Analyzer) analyze(c *event.Collection, workers int, keepFlows bool) *Output {
	views, ops := event.PartitionWorkers(c, workers)
	cfg := a.diagConfig()
	sched := diagnosis.OutagesFromOperational(ops, cfg.End)
	p := a.eng.Run(views, workers, engine.Fusion{KeepFlows: keepFlows, Sink: cfg.Sink, Sched: sched})
	return &Output{Result: p.Result(ops), Report: diagnosis.FromParts(cfg.Sink, cfg.Start, sched, p.Outcomes)}
}

// Analyze runs the full pipeline over a collection of per-node logs, fanning
// per-packet reconstruction out over Options.Parallelism workers (0 = serial).
// Each worker owns its flow arena, run state and classifier scratch: flows
// are classified as they are committed, each outcome into its packet's slot.
// Output is identical regardless of the worker count. Under
// Options.DropFlows the Result carries no flows.
func (a *Analyzer) Analyze(c *event.Collection) *Output {
	return a.analyze(c, a.workers(1), !a.opts.DropFlows)
}

// AnalyzeStream is Analyze at the throughput default: Options.Parallelism 0
// selects all cores instead of serial.
//
// Deprecated: the streaming partitioner it used to select is gone — this is
// Analyze with a different default fan-out. Set Options.Parallelism to -1
// and call Analyze. Kept until the benchmark's core.stream_par_s probe is
// retired.
func (a *Analyzer) AnalyzeStream(c *event.Collection) *Output {
	return a.analyze(c, a.workers(0), !a.opts.DropFlows)
}

// SnapshotOptions tunes AnalyzeSnapshot. The session the windows feed takes
// its horizon from the file: the exact within-packet spread the snapshot
// records (Snapshot.RecordedSpread) or, for a file that records none, one
// columnar pass (event.MaxPacketSpread). No other horizon could do better: a
// larger one gives the same output later, a smaller one splits packets.
type SnapshotOptions struct {
	// WindowRows is the target row count per residency window; 0 selects
	// 1<<20. A window's rows are read from the file a node at a time, so it
	// bounds the pending rows and the analysis per window, not how much of
	// the file is resident: none of its columns is, past the window plan.
	WindowRows int
	// RetainFlows keeps the flows for the Output. Without it the Output
	// carries no flows — the dominant retained cost of a snapshot larger
	// than memory — and no flow outlives its classification; the Result's
	// inferred-event and anomaly totals are there either way.
	// Options.DropFlows does not apply here: RetainFlows alone decides.
	RetainFlows bool
}

// scanSpread derives the horizon of a snapshot that records no trusted
// spread. It is a variable so that a test can see the fallback run.
var scanSpread = event.MaxPacketSpread

// AnalyzeSnapshot runs the full pipeline over an open snapshot out of core,
// as a source feeding one ingest session: for each residency window
// (event.PlanWindows) it reads every node's rows of the window from the file
// into one recycled span (Snapshot.ReadSpan) and appends them
// (Session.AppendRows, one call per node), punctuates every node at the
// window's cut — each unfed row lies strictly above it — and advances the
// session to the cut; then it drains. The plan scans the mapped time column;
// once it is made the mapping's pages are dropped (Snapshot.Evict) and no row
// is read through the mapping again, so the resident set is one node's span
// of columns plus the in-flight pending rows and the window's analysis.
// Output is byte-identical to Analyze over snap.Collection(), except that
// Result.Flows is nil without RetainFlows. A collection whose logs are not
// time-ordered cannot be windowed and is analyzed in memory instead, through
// the batch driver under the same retention choice.
// Worker count follows Options.Parallelism, 0 selecting all cores.
func (a *Analyzer) AnalyzeSnapshot(snap *event.Snapshot, opts SnapshotOptions) *Output {
	c := snap.Collection()
	rows := opts.WindowRows
	if rows <= 0 {
		rows = 1 << 20
	}
	plan, err := event.PlanWindows(c, rows)
	if err != nil {
		return a.analyze(c, a.workers(0), opts.RetainFlows)
	}
	horizon, ok := snap.RecordedSpread()
	if !ok {
		horizon = scanSpread(c)
	}
	snap.Evict()
	sess, err := a.NewSession(SessionConfig{Horizon: horizon, RetainFlows: opts.RetainFlows})
	if err != nil {
		panic(err) // unreachable: the analyzer has a sink and the horizon is not negative
	}
	// A fresh session fails Append and Advance only after Drain.
	var span event.Batch
	last := plan.Windows() - 1
	for k := 0; k <= last; k++ {
		for i, n := range plan.Nodes() {
			if lo, hi := plan.Span(k, i); lo < hi {
				snap.ReadSpan(plan, k, i, &span)
				_ = sess.AppendRows(n, &span, 0, span.Len())
			}
		}
		if k < last { // the last cut is math.MaxInt64: Drain retires it
			for _, n := range plan.Nodes() {
				sess.Punctuate(n, plan.Cut(k))
			}
			_, _ = sess.Advance(plan.Cut(k))
		}
	}
	res, rep := sess.Drain()
	return &Output{Result: res, Report: rep}
}

// Accuracy scores a diagnosis report against simulator ground truth.
type Accuracy struct {
	// Truth is the number of ground-truth packets considered.
	Truth int
	// Compared is how many of them REFILL produced an outcome for.
	Compared int
	// MissingFlows counts packets whose every log record was lost —
	// REFILL never saw them at all.
	MissingFlows int
	// DeliveredAgree counts packets whose delivered/lost verdict matches.
	DeliveredAgree int
	// LostBoth counts packets both sides agree were lost.
	LostBoth int
	// CauseAgree counts LostBoth packets with the exact same cause.
	CauseAgree int
	// PositionAgree counts LostBoth packets with the same loss position.
	PositionAgree int
}

// CauseRate is CauseAgree / LostBoth.
func (a Accuracy) CauseRate() float64 { return rate(a.CauseAgree, a.LostBoth) }

// PositionRate is PositionAgree / LostBoth.
func (a Accuracy) PositionRate() float64 { return rate(a.PositionAgree, a.LostBoth) }

// DeliveredRate is DeliveredAgree / Compared.
func (a Accuracy) DeliveredRate() float64 { return rate(a.DeliveredAgree, a.Compared) }

// Coverage is Compared / Truth.
func (a Accuracy) Coverage() float64 { return rate(a.Compared, a.Truth) }

func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Judgment is the minimal per-packet conclusion any analyzer — REFILL or a
// baseline — produces: a cause and a loss position.
type Judgment struct {
	Cause    diagnosis.Cause
	Position event.NodeID
}

// Score compares a report's outcomes against ground-truth fates. Censored
// ground-truth packets (fate Unknown) are skipped.
func Score(rep *diagnosis.Report, fates map[event.PacketID]network.Fate) Accuracy {
	j := make(map[event.PacketID]Judgment, len(rep.Outcomes))
	for _, o := range rep.Outcomes {
		j[o.Packet] = Judgment{Cause: o.Cause, Position: o.Position}
	}
	return ScoreJudgments(j, fates)
}

// ScoreJudgments scores any analyzer's per-packet judgments against
// ground-truth fates, with the same accounting Score uses for REFILL.
func ScoreJudgments(judgments map[event.PacketID]Judgment, fates map[event.PacketID]network.Fate) Accuracy {
	var acc Accuracy
	for id, fate := range fates {
		if fate.Cause == diagnosis.Unknown {
			continue // censored at end of run
		}
		acc.Truth++
		out, ok := judgments[id]
		if !ok {
			acc.MissingFlows++
			continue
		}
		acc.Compared++
		gtDelivered := fate.Cause == diagnosis.Delivered
		reDelivered := out.Cause == diagnosis.Delivered
		if gtDelivered == reDelivered {
			acc.DeliveredAgree++
		}
		if !gtDelivered && !reDelivered {
			acc.LostBoth++
			if out.Cause == fate.Cause {
				acc.CauseAgree++
			}
			if out.Position == fate.Position {
				acc.PositionAgree++
			}
		}
	}
	return acc
}
