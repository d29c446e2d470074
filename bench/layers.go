package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/report"
	"repro/internal/sim"
)

// probes is the traced run: the calls into each layer's public functions,
// timed from outside over the workload's own events. Everything here runs in
// this process; only refill.process_overhead_s and the serve.* numbers start
// the real binaries, to subtract the in-process time from theirs.
type probes struct {
	e   *env
	in  *input
	ref *reference
	tr  *tracer
	s   samples

	eng  *engine.Engine
	diag diagnosis.Config
	ser  *core.Analyzer // serial
	par  *core.Analyzer // workers
}

func newProbes(e *env, in *input, ref *reference) (*probes, error) {
	p := &probes{e: e, in: in, ref: ref, tr: newTracer(), s: make(samples)}
	p.diag = diagnosis.Config{Sink: in.c.sink, End: in.c.end(), DayLen: int64(sim.Day), Days: in.c.days}
	var err error
	if p.eng, err = engine.New(engine.Options{Sink: in.c.sink}); err != nil {
		return nil, err
	}
	if p.ser, err = analyzer(in.c, 0); err != nil {
		return nil, err
	}
	if p.par, err = analyzer(in.c, workers); err != nil {
		return nil, err
	}
	// The layers are probed on every workload, so each needs every input
	// form, not only the one its own binary reads.
	missing := func(name string) bool { _, err := os.Stat(in.path(name)); return err != nil }
	if missing("campaign.txt") {
		err = in.writeText()
	}
	if err == nil && missing("campaign.bin") {
		err = in.writeBinary()
	}
	if err == nil && in.sched == nil {
		err = in.slice(e.sc.rounds)
	}
	return p, err
}

func readFile(path string, read func(io.Reader) (*event.Collection, error)) (*event.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// staged is the pipeline one layer at a time, the way the fused paths run it
// inside one call: decode, partition, walk, diagnose, render.
type staged struct {
	d     map[string]time.Duration // by per-layer metric
	views []*event.PacketView
	flows []*flow.Flow
	rep   *diagnosis.Report
}

func (st *staged) total() time.Duration {
	var sum time.Duration
	for _, d := range st.d {
		sum += d
	}
	return sum
}

// probe times one call into a layer from a settled heap. Without the
// collection up front, how much garbage the calls before it left decides
// when the collector runs inside this one, and the same call reads anywhere
// between 0.7 and 2 s.
func probe(tr *tracer, name string, fn func()) time.Duration {
	runtime.GC()
	return tr.time(name, fn)
}

func (p *probes) staged(tr *tracer) (*staged, error) {
	st := &staged{d: make(map[string]time.Duration)}
	var (
		logs *event.Collection
		ops  []event.Event
		text string
		err  error
	)
	tr.time("pipeline.staged", func() {
		st.d["event.decode_text_s"] = probe(tr, "event.decode_text", func() {
			logs, err = readFile(p.in.path("campaign.txt"), event.ReadCollection)
		})
		if err != nil {
			return
		}
		st.d["event.partition_s"] = probe(tr, "event.partition", func() { st.views, ops = event.Partition(logs) })
		st.d["engine.walk_s"] = probe(tr, "engine.walk", func() { st.flows = p.eng.AnalyzeViews(st.views) })
		st.d["diagnosis.build_s"] = probe(tr, "diagnosis.build", func() { st.rep = diagnosis.BuildConfig(st.flows, ops, p.diag) })
		st.d["report.render_s"] = probe(tr, "report.render", func() { text = report.Breakdown(st.rep) })
	})
	if err != nil {
		return nil, err
	}
	if text != p.ref.breakdown {
		return nil, fmt.Errorf("staged pipeline's report differs from the reference")
	}
	return st, nil
}

// iteration runs every probe once under one root span.
func (p *probes) iteration() (err error) {
	p.tr.time("iteration", func() { err = p.layers() })
	p.tr.iter++
	return err
}

// sec probes one call and records its seconds under metric.
func (p *probes) sec(metric, span string, fn func()) float64 {
	d := probe(p.tr, span, fn).Seconds()
	p.s.add(metric, d)
	return d
}

func (p *probes) layers() error {
	tr, s, c, sec := p.tr, p.s, p.in.c, p.sec

	st, err := p.staged(tr)
	if err != nil {
		return err
	}
	for metric, d := range st.d {
		s.add(metric, d.Seconds())
	}
	s.add("engine.walk_events_per_s", float64(c.logs.TotalEvents())/st.d["engine.walk_s"].Seconds())
	// Same code, spans off: the difference is what tracing costs.
	plain, err := p.staged(nil)
	if err != nil {
		return err
	}
	s.add("trace.overhead_share", (st.total()-plain.total()).Seconds()/plain.total().Seconds())
	plain = nil

	sec("event.decode_binary_s", "event.decode_binary", func() {
		_, err = readFile(p.in.path("campaign.bin"), event.ReadCollectionBinary)
	})
	if err != nil {
		return err
	}
	classify := sec("diagnosis.classify_s", "diagnosis.classify", func() {
		cl := diagnosis.NewClassifier()
		for _, f := range st.flows {
			cl.Classify(f)
		}
	})
	sec("diagnosis.reads_s", "diagnosis.reads", func() {
		rep := st.rep
		rep.Breakdown()
		rep.LossCount()
		rep.DailyComposition(int64(sim.Day), c.days)
		rep.SourcePoints()
		rep.PositionPoints()
		rep.TopLossPositions(10)
		for _, cause := range diagnosis.Causes() {
			rep.LossesBySite(cause)
			rep.SplitBySink(cause)
		}
	})
	stage := st.d
	st = nil // its flows are pointer-rich: dead weight for every collection below
	sec("fsm.compile_s", "fsm.compile", func() { _, err = engine.New(engine.Options{Sink: c.sink}) })
	if err != nil {
		return err
	}

	snapPath := p.in.path("probe.snap")
	sec("event.snapshot_write_s", "event.snapshot_write", func() { err = event.WriteSnapshot(snapPath, c.logs) })
	if err != nil {
		return err
	}
	if fi, err := os.Stat(snapPath); err == nil {
		s.add("event.snapshot_bytes", float64(fi.Size()))
	}
	var snap *event.Snapshot
	sec("event.snapshot_open_s", "event.snapshot_open", func() { snap, err = event.OpenSnapshot(snapPath) })
	if err != nil {
		return err
	}
	defer snap.Close()
	if err := p.windows(snap.Collection()); err != nil {
		return err
	}

	check := func(out *core.Output) {
		if err == nil {
			err = p.ref.checkReport(out.Report)
		}
	}
	serial := sec("core.analyze_serial_s", "core.analyze_serial", func() { check(p.ser.Analyze(c.logs)) })
	par := sec("core.analyze_par_s", "core.analyze_par", func() { check(p.par.Analyze(c.logs)) })
	sec("core.stream_par_s", "core.stream_par", func() { check(p.par.AnalyzeStream(c.logs)) })
	sec("core.snapshot_par_s", "core.snapshot_par", func() {
		check(p.par.AnalyzeSnapshot(snap, core.SnapshotOptions{WindowRows: p.e.sc.windowRows}))
	})
	if err != nil {
		return err
	}
	s.add("core.par_speedup", serial/par)
	s.add("core.fused_residual_s", serial-stage["event.partition_s"].Seconds()-stage["engine.walk_s"].Seconds()-classify)

	var ing *ingestStats
	probe(tr, "ingest.replay", func() { ing, err = p.ingestReplay(tr, workers) })
	if err != nil {
		return err
	}
	s.add("ingest.append_s", sum(ing.appendUs)/1e6)
	s.add("ingest.append_us_p50", ing.appendUs...)
	s.add("event.decode_fragment_us_p50", ing.decodeUs...)
	s.add("ingest.advance_s", sum(ing.advanceMs)/1e3)
	s.add("ingest.advance_ms_p50", ing.advanceMs...)
	s.add("ingest.snapshot_read_us_p50", ing.snapshotUs...)
	s.add("ingest.drain_s", ing.drain.Seconds())
	s.add("ingest.checkpoint_write_s", ing.checkpoint.Seconds())
	s.add("ingest.checkpoint_bytes", float64(ing.checkpointBytes))

	// The real binaries over the same inputs, for what the process and
	// the transport add on top of the in-process calls.
	it, err := p.in.runRefill(p.e, p.ref)
	if err != nil {
		return err
	}
	if it.failed > 0 {
		return fmt.Errorf("refill child's output differs from the reference")
	}
	s.add("refill.process_overhead_s", it.wall.Seconds()-s.median(p.in.inProcess[0])-s.median(p.in.inProcess[1]))

	it, err = p.in.runServe(p.e, p.ref)
	if err != nil {
		return err
	}
	if it.failed > 0 {
		return fmt.Errorf("refill-serve replay: %d of %d operations failed", it.failed, it.ops)
	}
	r := it.replay
	s.add("serve.http_overhead_s", r.wall.Seconds()-ing.wall.Seconds())
	s.add("serve.requests", float64(r.requests))
	s.add("serve.body_bytes", float64(r.bodyBytes))
	s.add("append_p50_ms", r.appendMs...)
	s.add("append_under_advance_p50_ms", r.appendUnderAdvance...)
	s.add("advance_p50_ms", r.advanceMs...)
	s.add("advance_p95_ms", r.advanceMs...)
	s.add("report_p50_ms", r.reportMs...)
	s.add("drain_s", r.drain.Seconds())
	return nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// windows walks the out-of-core path's own loop — plan, horizon scan, then
// feed and retire per residency window — without analyzing the windows, so
// the pending store's cost stands alone.
func (p *probes) windows(c *event.Collection) error {
	tr, s := p.tr, p.s
	var plan *event.WindowPlan
	var err error
	p.sec("event.window_plan_s", "event.window_plan", func() { plan, err = event.PlanWindows(c, p.e.sc.windowRows) })
	if err != nil {
		return err
	}
	var horizon int64
	p.sec("event.spread_scan_s", "event.spread_scan", func() { horizon = event.MaxPacketSpread(c) })

	pending := event.NewPendingStore(16)
	window := event.NewCollection()
	var feed, retire time.Duration
	peak, rows := 0, 0
	for k := 0; k < plan.Windows(); k++ {
		feed += tr.time("event.window_feed", func() { plan.FeedWindow(c, k, pending) })
		peak = max(peak, pending.Rows())
		window.ResetLogs()
		retire += tr.time("event.window_retire", func() {
			if k == plan.Windows()-1 {
				pending.AppendPendingTo(window)
			} else {
				pending.RetireComplete(plan.Cut(k)-horizon, window)
			}
		})
		rows += window.TotalEvents()
	}
	s.add("event.window_feed_s", feed.Seconds())
	s.add("event.window_retire_s", retire.Seconds())
	s.add("event.pending_rows_peak", float64(peak))
	if want := c.TotalEvents() - len(event.OperationalEvents(c)); rows != want {
		return fmt.Errorf("window loop retired %d rows, the collection has %d packet rows", rows, want)
	}
	return nil
}

// ingestStats is one in-process replay of the serve-replay schedule.
type ingestStats struct {
	wall                           time.Duration // register -> drained, checkpoint write left out
	decodeUs, appendUs, snapshotUs []float64
	advanceMs                      []float64
	drain, checkpoint              time.Duration
	checkpointBytes                int64
	pendingPeak, finalized         int
	advanceAllocs                  uint64
}

// ingestReplay does in this process what refill-serve's handlers do for the
// replay's requests, serially: per fragment decode the body and append its
// rows; per round advance the watermark and read a report; at the end drain.
// Half way it writes one checkpoint, which the daemon would do on a timer.
func (p *probes) ingestReplay(tr *tracer, nWorkers int) (*ingestStats, error) {
	an, err := analyzer(p.in.c, nWorkers)
	if err != nil {
		return nil, err
	}
	sess, err := an.NewSession(core.SessionConfig{Horizon: p.in.horizon})
	if err != nil {
		return nil, err
	}
	st := &ingestStats{}
	sched := p.in.sched
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for _, n := range sched.nodes {
		sess.Register(n)
	}
	for r, round := range sched.rounds {
		for _, f := range round {
			var logs *event.Collection
			st.decodeUs = append(st.decodeUs, us(tr.time("event.decode_fragment", func() {
				logs, err = event.ReadCollectionBinary(bytes.NewReader(f.body))
			})))
			if err != nil {
				return nil, err
			}
			st.appendUs = append(st.appendUs, us(tr.time("ingest.append", func() {
				for _, n := range logs.Nodes() {
					if aerr := sess.Append(n, logs.Log(n).Events()); aerr != nil {
						err = aerr
					}
				}
			})))
			if err != nil {
				return nil, err
			}
		}
		st.pendingPeak = max(st.pendingPeak, sess.Stats().PendingRows)
		runtime.ReadMemStats(&ms0)
		st.advanceMs = append(st.advanceMs, ms(tr.time("ingest.advance", func() { _, err = sess.Advance(sched.cuts[r]) })))
		runtime.ReadMemStats(&ms1)
		st.advanceAllocs += ms1.Mallocs - ms0.Mallocs
		if err != nil {
			return nil, err
		}
		st.snapshotUs = append(st.snapshotUs, us(tr.time("ingest.snapshot_read", func() { sess.Snapshot() })))
		if r == len(sched.rounds)/2 {
			path := p.in.path("probe.ckpt")
			st.checkpoint = tr.time("ingest.checkpoint_write", func() { err = sess.WriteCheckpoint(path) })
			if err != nil {
				return nil, err
			}
			if fi, err := os.Stat(path); err == nil {
				st.checkpointBytes = fi.Size()
			}
		}
	}
	st.finalized = sess.Stats().FinalizedPackets
	var rep *diagnosis.Report
	st.drain = tr.time("ingest.drain", func() { _, rep = sess.Drain() })
	st.wall = time.Since(start) - st.checkpoint
	return st, p.ref.checkReport(rep)
}

// allocsOf counts the heap allocations of one serial call. The collector is
// off for the call: a collection empties the engine's sync.Pool, and whether
// one falls inside the call would change the count from run to run.
func allocsOf(fn func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// counts takes the numbers that must repeat exactly for a seed, once per run
// and serially: allocations per layer call, and what the reconstruction
// produced.
func (p *probes) counts() error {
	s := p.s
	var logs *event.Collection
	var err error
	s.add("event.decode_text_allocs", allocsOf(func() {
		logs, err = readFile(p.in.path("campaign.txt"), event.ReadCollection)
	}))
	if err != nil {
		return err
	}
	var views []*event.PacketView
	s.add("event.partition_allocs", allocsOf(func() { views, _ = event.Partition(logs) }))
	s.add("event.partition_views", float64(len(views)))
	var flows []*flow.Flow
	s.add("engine.walk_allocs", allocsOf(func() { flows = p.eng.AnalyzeViews(views) }))
	inferred, anomalies, items, size := 0, 0, 0, uintptr(0)
	for _, f := range flows {
		inferred += f.InferredCount()
		anomalies += len(f.Anomalies)
		items += len(f.Items)
		size += unsafe.Sizeof(*f) + uintptr(len(f.Items))*unsafe.Sizeof(flow.Item{}) +
			uintptr(len(f.Visits))*unsafe.Sizeof(flow.Visit{}) + uintptr(len(f.Anomalies))*unsafe.Sizeof(flow.Anomaly{})
	}
	s.add("engine.inferred_events", float64(inferred))
	s.add("engine.anomalies", float64(anomalies))
	s.add("flow.items", float64(items))
	s.add("flow.bytes", float64(size))
	s.add("cause_agreement", p.ref.causeAgreement)

	// One worker: the per-window fan-out allocates by how the steals fall.
	var ing *ingestStats
	allocsOf(func() { ing, err = p.ingestReplay(nil, 1) })
	if err != nil {
		return err
	}
	s.add("ingest.advance_allocs", float64(ing.advanceAllocs))
	s.add("ingest.pending_rows_peak", float64(ing.pendingPeak))
	s.add("ingest.finalized_before_drain", float64(ing.finalized))
	return nil
}
