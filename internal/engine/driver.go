package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// The pipeline. Packets never interact (the transition algorithm of Section
// IV is per packet), so there is one unit of work — walk one PacketView,
// classify the flow, fold the outcome — and one stitch:
//
//	views → range cursor → worker (run + arena + classifier + aggregate) → indexed merge → Parts
//
// Every analysis entry point is this driver fed different views and a
// different outage schedule: batch Analyze/AnalyzeDiagnosed partition the
// whole collection (AnalyzeDiagnosed on its workers, before they walk:
// event.PartitionWorkers), the ingest session — whatever feeds it, a live
// service or a mapped snapshot — takes one retired window's views at a time
// straight from its pending store (AnalyzeWindowDiagnosed) and folds the
// windows' Parts together. Serial is workers == 1 of the same worker body, run inline
// on the caller's goroutine.
//
// Determinism: which worker walks which view is racy by construction (the
// workers race for ranges on one shared cursor), but every worker writes flows
// and outcomes into the slots of the views it walked and folds into its own
// aggregate; the join is the indexed writes themselves plus the
// order-independent Aggregate.Merge, so the output is identical for every
// worker count.

// Parts is the mergeable output of one driver run: Flows and Outcomes are
// co-indexed with the views the run was given (packet-ID order) and Aggregate
// covers exactly those outcomes. InferredEvents and Anomalies total the run's
// flows, counted while each flow is hot whether it is kept or not, so a run
// without flows still reports them. Window callers Fold many Parts into one
// and Settle it before reading its Flows or Outcomes in order; the batch
// entry points assemble a single run's directly.
type Parts struct {
	Flows          []*flow.Flow
	Outcomes       []diagnosis.Outcome
	Aggregate      *diagnosis.Aggregate
	InferredEvents int
	Anomalies      int
	// runs holds where each sorted run of Outcomes (and Flows) after the
	// first begins, oldest first; none once settled. spare is the merges'
	// scratch.
	runs       []int
	spare      []diagnosis.Outcome
	spareFlows []*flow.Flow
}

// Result assembles the batch-shaped Result of p: its flows and counters
// beside the operational events ops.
func (p *Parts) Result(ops []event.Event) *Result {
	return &Result{Operational: ops, Flows: p.Flows, InferredEvents: p.InferredEvents, Anomalies: p.Anomalies}
}

// Fold adds one window's parts to the running accumulation p, whose
// Aggregate must be non-nil. A window's outcomes are in packet-ID order (its
// views come out of the pending store's Retire sorted) but interleave with
// earlier windows', so merging each window into everything folded before
// moves the whole accumulation every time: O(N·W) for W windows. Fold
// appends the window as a sorted run instead and, as a binary counter
// carries, merges the newest two runs while the newer one's length has as
// many bits as the older one's. So the runs' lengths fall by powers of two,
// and W similar windows cost O(N log W) moves; where runs fall depends only
// on the windows' sizes, never on the worker count.
// Fold merges whatever flows the window carries: whether a window keeps its
// flows is decided once, by the driver run that produced it
// (AnalyzeWindowDiagnosed's keepFlows), and a window run without them
// carries none, so p.Flows stays nil. Flows and outcomes carry the same
// packet keys, so merging each by its key moves them alike and, as long as
// every window keeps flows or none does, they stay co-indexed.
func (p *Parts) Fold(w Parts) {
	if len(p.Outcomes) > 0 && len(w.Outcomes) > 0 {
		p.runs = append(p.runs, len(p.Outcomes))
	}
	p.Outcomes = append(p.Outcomes, w.Outcomes...)
	p.Flows = append(p.Flows, w.Flows...)
	for k := len(p.runs); k > 0; k-- {
		newer, older := len(p.Outcomes)-p.runs[k-1], p.runs[k-1]-p.runStart(k-1)
		if bits.Len(uint(newer)) < bits.Len(uint(older)) {
			break
		}
		p.mergeTop()
	}
	p.Aggregate.Merge(w.Aggregate)
	p.InferredEvents += w.InferredEvents
	p.Anomalies += w.Anomalies
}

// Settle merges every run Fold left, so that Outcomes and Flows are in
// packet-ID order: the stable sort of every window folded, in fold order.
func (p *Parts) Settle() {
	for len(p.runs) > 0 {
		p.mergeTop()
	}
}

// runStart is where the run before runs[k] starts.
func (p *Parts) runStart(k int) int {
	if k == 0 {
		return 0
	}
	return p.runs[k-1]
}

// mergeTop merges the newest run, copied to the scratch, into the one
// before it; on a tie (a packet split across windows by too small a
// horizon) the older window's element stays first.
func (p *Parts) mergeTop() {
	k := len(p.runs) - 1
	lo, mid := p.runStart(k), p.runs[k]
	p.runs = p.runs[:k]
	p.spare = append(p.spare[:0], p.Outcomes[mid:]...)
	mergeSorted(p.Outcomes[lo:mid], p.spare, func(a, b diagnosis.Outcome) bool { return a.Packet.Less(b.Packet) })
	if len(p.Flows) > 0 {
		p.spareFlows = append(p.spareFlows[:0], p.Flows[mid:]...)
		mergeSorted(p.Flows[lo:mid], p.spareFlows, func(a, b *flow.Flow) bool { return a.Packet.Less(b.Packet) })
	}
}

// mergeSorted merges src into dst, both sorted by less, and returns the
// grown dst. It runs backwards in place, from the ends of both into dst's
// grown tail: O(len(dst)+len(src)) moves, no allocation beyond dst's own
// amortized growth, and every slot is written only after it was read. On a
// tie dst's element stays first.
func mergeSorted[T any](dst, src []T, less func(a, b T) bool) []T {
	i, j := len(dst)-1, len(src)-1
	dst = append(dst, src...)
	for k := len(dst) - 1; i >= 0 && j >= 0; k-- {
		if less(src[j], dst[i]) {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = src[j]
			j--
		}
	}
	copy(dst, src[:j+1]) // with dst exhausted, src's first j+1 go in front
	return dst
}

// fusion is what a driver run keeps besides walking. When diagnose is set
// every worker classifies each flow the moment it commits it — while the
// flow's items and visits are still hot in that worker's cache — against the
// shared read-only outage schedule, and folds the outcome into its own
// aggregate. keepFlows keeps every flow for the caller; without it each flow
// lives only until it is counted and, under diagnose, classified.
type fusion struct {
	diagnose  bool
	keepFlows bool
	cfg       diagnosis.Config
	sched     diagnosis.OutageSchedule
}

// work is the one worker body: pull view ranges from next until the batch
// drains, and for each view reconstruct the flow, count its inferred items
// and anomalies, classify it and fold the outcome — the only place any of
// that happens. Flows and outcomes land in the view's own slot; flows is nil
// when nobody keeps them, and then the arena is Reset as soon as each flow is
// counted and classified, so the worker recycles one flow's worth of chunks
// through the whole run. The worker owns its scratch for the duration of the
// run and nothing of it crosses to another worker: its run (recycled through
// the engine's free list, so a serial caller analyzing many small windows
// does not allocate one per call), its output arena (its flows stay on memory
// it touched), and under fusion its classifier scratch and its aggregate. What
// leaves is the return value, the worker's slot for drive's join: its counts
// and its aggregate (nil without fusion); Flows and Outcomes stay nil there,
// written in place instead.
func (e *Engine) work(views []*event.PacketView, flows []*flow.Flow, outs []diagnosis.Outcome, fu fusion, sizing flow.Sizing, next func() (lo, hi int, ok bool)) Parts {
	r := e.getRun()
	arena := flow.NewArena(sizing)
	var cl *diagnosis.Classifier
	var p Parts
	if fu.diagnose {
		cl = diagnosis.NewClassifier()
		p.Aggregate = diagnosis.NewAggregate(fu.cfg.Sink, fu.cfg.Start, fu.cfg.DayLen, fu.cfg.Days)
	}
	for lo, hi, ok := next(); ok; lo, hi, ok = next() {
		for i := lo; i < hi; i++ {
			f := r.analyze(e, views[i], arena)
			p.InferredEvents += f.InferredCount()
			p.Anomalies += len(f.Anomalies)
			if fu.diagnose {
				outs[i] = diagnosis.ApplyOutages(cl.Classify(f), fu.sched, fu.cfg.Sink)
				p.Aggregate.Add(outs[i])
			}
			if fu.keepFlows {
				flows[i] = f
			} else {
				arena.Reset()
			}
		}
	}
	e.putRun(r)
	return p
}

// drive runs the pipeline over views (which must be in packet-ID order, as
// Partition returns them) with the given fan-out; workers <= 0 selects
// GOMAXPROCS, and no more workers run than there are views. One worker runs
// inline over the whole range; several, each on its own goroutine with its own
// scratch, pull grain-sized ranges off one shared atomic cursor until it runs
// past the end — packets are independent, so a work list is all the
// scheduling there is, and a hot origin spreads because nothing keeps its
// views together. The serial branch keeps its own next: sharing one closure
// with the goroutines would move it to the heap, an allocation per call.
//
// Without fu.keepFlows there is no flows slice and no arena sized from the
// views: each worker starts from the default chunks and keeps only the
// largest flow's worth. Each worker returns its counts and aggregate in its
// slot of one per-run slice; the join sums the counts and merges the
// aggregates into the first slot, which becomes the run's Parts.
func (e *Engine) drive(views []*event.PacketView, workers int, fu fusion) Parts {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(views)))
	// flows, outs and sizing are assigned exactly once so the worker
	// goroutines capture them by value; declared empty and filled in under an
	// if, they would move to the heap on the serial path too — an allocation
	// per call.
	flows := slots[*flow.Flow](len(views), fu.keepFlows)
	outs := slots[diagnosis.Outcome](len(views), fu.diagnose)
	sizing := e.workerSizing(views, workers, fu.keepFlows)
	if workers == 1 {
		pending := true
		p := e.work(views, flows, outs, fu, sizing, func() (int, int, bool) {
			ok := pending
			pending = false
			return 0, len(views), ok
		})
		p.Flows, p.Outcomes = flows, outs
		return p
	}
	// Grain: coarse enough to amortize the shared cursor over many
	// sub-millisecond packet analyses, fine enough that the tail spreads —
	// about 64 pulls per worker per run.
	var cursor atomic.Int64
	n, grain := int64(len(views)), int64(len(views)/(workers*64)+1)
	next := func() (int, int, bool) {
		lo := cursor.Add(grain) - grain
		return int(lo), int(min(lo+grain, n)), lo < n
	}
	results := make([]Parts, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			results[w] = e.work(views, flows, outs, fu, sizing, next)
		}(w)
	}
	wg.Wait()
	p := results[0]
	for _, s := range results[1:] {
		if fu.diagnose {
			p.Aggregate.Merge(s.Aggregate)
		}
		p.InferredEvents += s.InferredEvents
		p.Anomalies += s.Anomalies
	}
	p.Flows, p.Outcomes = flows, outs
	return p
}

// slots returns n zero slots for a driver output column, or nil when the
// run does not produce that column.
func slots[T any](n int, want bool) []T {
	if !want {
		return nil
	}
	return make([]T, n)
}

// workerSizing is one worker's arena sizing: the views' estimate scaled
// down to one worker's expected share when flows are kept, and the arena's
// defaults when each flow is recycled as soon as it is classified — then
// nothing is read from the views.
func (e *Engine) workerSizing(views []*event.PacketView, workers int, keepFlows bool) flow.Sizing {
	if !keepFlows {
		return flow.Sizing{}
	}
	s := e.flowSizing(views)
	return flow.Sizing{
		Flows:     s.Flows/workers + 1,
		Items:     s.Items/workers + 1,
		Visits:    s.Visits/workers + 1,
		Anomalies: s.Anomalies/workers + 1,
	}
}

// Analyze partitions the collection by packet and reconstructs every flow,
// serially and without diagnosis.
func (e *Engine) Analyze(c *event.Collection) *Result {
	views, ops := event.Partition(c)
	p := e.drive(views, 1, fusion{keepFlows: true})
	return p.Result(ops)
}

// AnalyzeViews reconstructs each view's flow, in view order, serially,
// committing all of them into one shared output arena sized by the views' row
// counts.
func (e *Engine) AnalyzeViews(views []*event.PacketView) []*flow.Flow {
	return e.drive(views, 1, fusion{keepFlows: true}).Flows
}

// AnalyzePacket reconstructs the event flow for a single packet from its
// per-node log slices. The flow is built into a zero arena of its own, so
// its slices are exactly sized; batch callers should prefer AnalyzeViews so
// many flows share chunked storage.
func (e *Engine) AnalyzePacket(v *event.PacketView) *flow.Flow {
	var a flow.Arena
	r := e.getRun()
	f := r.analyze(e, v, &a)
	e.putRun(r)
	return f
}

// AnalyzeDiagnosed reconstructs and diagnoses a whole collection in one fused
// pass over workers workers (1 = serial, <= 0 selects GOMAXPROCS). The
// partition before the walk runs on the same workers
// (event.PartitionWorkers). The outage schedule is reconstructed up front
// from the operational events the partition sets aside. With keepFlows the
// Result matches Analyze's; without it the Result carries no flows (each
// worker recycles one small arena, as AnalyzeWindowDiagnosed does) and is
// otherwise the same, counters included. The Report matches running
// diagnosis.BuildConfig over Analyze's Result either way, for every worker
// count.
func (e *Engine) AnalyzeDiagnosed(c *event.Collection, workers int, cfg diagnosis.Config, keepFlows bool) (*Result, *diagnosis.Report) {
	views, ops := event.PartitionWorkers(c, workers)
	sched := diagnosis.OutagesFromOperational(ops, cfg.End)
	p := e.drive(views, workers, fusion{diagnose: true, keepFlows: keepFlows, cfg: cfg, sched: sched})
	return p.Result(ops), diagnosis.FromParts(cfg.Sink, sched, p.Outcomes, p.Aggregate)
}

// AnalyzeWindowDiagnosed reconstructs and classifies every packet of one
// retired window — the incremental form of AnalyzeDiagnosed for the ingest
// session, which Folds many windows' Parts together and only assembles a
// Report at snapshot or drain time. views must be in packet-ID order, as the
// pending store's Retire and Partition return them; sched is the outage
// schedule the window's outcomes are classified against. With keepFlows the
// Parts carry every flow; without it they carry none (Flows is nil), and each
// worker recycles one small arena, flow by flow, instead of committing the
// window's flows only to drop them. Per-packet work is identical to the batch
// entry points', so folded windows reproduce AnalyzeDiagnosed byte for byte,
// outcomes and aggregate alike whether flows are kept or not. workers <= 0
// selects GOMAXPROCS.
func (e *Engine) AnalyzeWindowDiagnosed(views []*event.PacketView, workers int, cfg diagnosis.Config, sched diagnosis.OutageSchedule, keepFlows bool) Parts {
	return e.drive(views, workers, fusion{diagnose: true, keepFlows: keepFlows, cfg: cfg, sched: sched})
}
