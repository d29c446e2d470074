package engine

import (
	"math"

	"repro/internal/diagnosis"
	"repro/internal/event"
)

// Out-of-core analysis: reconstruct and diagnose a campaign straight off a
// mapped snapshot in bounded memory. The batch entry points materialize every
// PacketView before the first analysis starts — a partition arena
// proportional to the whole campaign — which is exactly what a snapshot
// larger than RAM cannot afford. This caller instead walks the snapshot one
// residency window at a time (event.PlanWindows): feed the window's rows into
// the watermark pending store, retire the packets the window provably
// completes into a small reused window collection, run the driver over just
// those packets (AnalyzeWindowDiagnosed) and fold the window's Parts.
// Madvise hints double-buffer the walk — window k+1 prefetches while window k
// computes, and spent windows are released — so the resident set is about two
// windows of columns plus the in-flight pending rows, independent of the
// snapshot size.
//
// Outputs are byte-identical to batch Analyze over the same collection: rows
// are fed in per-node log order (all the partitioner assumes), a packet's
// rows land in exactly one window (the horizon argument below), the outage
// schedule is the same full-campaign schedule the batch entry points build,
// and Parts.Finish restores packet-ID order. Completeness of a retired packet
// is the watermark argument of watermark.go with the cut time as the
// effective watermark: every unfed row has time strictly above the window's
// cut t, so any packet with rows still unfed has all its fed rows above
// t - horizon — retiring at cutoff = t - horizon can never split a packet,
// provided horizon bounds the within-packet timestamp spread.

// DefaultSnapshotWindowRows is the residency-window size used when
// SnapshotOptions.WindowRows is zero: about 30 MiB of hot columns per window
// (29 bytes/row), two windows resident at a time.
const DefaultSnapshotWindowRows = 1 << 20

// SnapshotOptions tunes AnalyzeSnapshotDiagnosed.
type SnapshotOptions struct {
	// WindowRows is the target row count per residency window (0 selects
	// DefaultSnapshotWindowRows). Smaller windows bound memory tighter but
	// retire packets in smaller batches.
	WindowRows int
	// Horizon bounds the within-packet timestamp spread (cross-node clock
	// skew plus in-network packet lifetime) — the same quantity
	// ingest.Config.Horizon bounds. <= 0 derives the exact value from the
	// snapshot with one columnar pass (event.MaxPacketSpread); deployments
	// with a known skew budget should pass it and skip the scan.
	// math.MaxInt64, passed or derived, means unbounded: nothing retires
	// before the last window.
	Horizon int64
	// DiscardFlows drops reconstructed flows after each window is
	// aggregated, returning a Result with nil Flows. For snapshots larger
	// than memory the flows themselves are the dominant retained cost, and
	// diagnosis-only consumers never read them.
	DiscardFlows bool
}

// AnalyzeSnapshotDiagnosed runs the fused reconstruction + diagnosis over a
// snapshot in residency windows (see the package comment above). The Result
// and Report match AnalyzeDiagnosed over snap.Collection() exactly, except
// that Result.Flows is nil under SnapshotOptions.DiscardFlows. workers <= 0
// selects GOMAXPROCS per window. A collection whose logs are not
// time-ordered cannot be windowed; it falls back to the in-memory batch path.
func (e *Engine) AnalyzeSnapshotDiagnosed(snap *event.Snapshot, workers int, cfg diagnosis.Config, opts SnapshotOptions) (*Result, *diagnosis.Report) {
	c := snap.Collection()
	windowRows := opts.WindowRows
	if windowRows <= 0 {
		windowRows = DefaultSnapshotWindowRows
	}
	plan, err := event.PlanWindows(c, windowRows)
	if err != nil {
		res, rep := e.AnalyzeDiagnosed(c, workers, cfg)
		if opts.DiscardFlows {
			res.Flows = nil
		}
		return res, rep
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = event.MaxPacketSpread(c)
	}

	// The outage schedule is global — an early outage classifies a late
	// packet — so it is built once up front from a dedicated scan.
	// Operational rows are rare; the scan touches the 1-byte type column
	// sequentially and little else.
	ops := event.OperationalEvents(c)
	sched := diagnosis.OutagesFromOperational(ops, cfg.End)

	pending := event.NewPendingStore(0)
	window := event.NewCollection()
	acc := Parts{Aggregate: diagnosis.NewAggregate(cfg.Sink, cfg.Start, cfg.DayLen, cfg.Days)}
	last := plan.Windows() - 1
	for k := 0; k <= last; k++ {
		snap.PrefetchWindow(plan, k+1)
		plan.FeedWindow(c, k, pending)
		window.ResetLogs()
		if k == last {
			// Every row is fed, so nothing can still be incomplete. (A
			// strict cutoff cannot say that: a packet stamped
			// math.MaxInt64 is never strictly below one.)
			pending.RetireAll(window)
		} else {
			cutoff := plan.Cut(k) - horizon
			if cutoff > plan.Cut(k) || horizon == math.MaxInt64 { // underflowed past MinInt64, or no bound at all
				cutoff = math.MinInt64
			}
			pending.RetireComplete(cutoff, window)
		}
		acc.Fold(e.AnalyzeWindowDiagnosed(window, workers, cfg, sched), !opts.DiscardFlows)
		snap.ReleaseWindow(plan, k)
	}
	return acc.Finish(cfg.Sink, ops, sched)
}
