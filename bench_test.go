package refill

// Benchmark harness: one benchmark per evaluation artifact (Table II,
// Figures 4, 5, 6, 8, 9) plus the extension experiments (accuracy sweep,
// ablations) and engine scaling. Each figure benchmark reuses a single
// simulated campaign (built outside the timer) and measures the analysis
// that regenerates the artifact; custom metrics report the headline numbers
// so `go test -bench .` doubles as the reproduction harness.

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/fsm"
	"repro/internal/logging"
	"repro/internal/sim"
	"repro/internal/sim/dissem"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchCamp *experiments.Campaign
	benchErr  error
)

// benchCampaign builds the shared small campaign once.
func benchCampaign(b *testing.B) *experiments.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		benchCamp, benchErr = experiments.RunCampaign(experiments.SmallCampaign())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp
}

// tableIIView builds the paper's Case 4 packet view.
func tableIIView() *event.PacketView {
	pkt := event.PacketID{Origin: 1, Seq: 1}
	mk := func(t event.Type, s, r event.NodeID) event.Event {
		n := r
		if t.SenderSide() {
			n = s
		}
		return event.Event{Node: n, Type: t, Sender: s, Receiver: r, Packet: pkt}
	}
	return event.NewPacketView(pkt, map[event.NodeID][]event.Event{
		1: {mk(event.Trans, 1, 2), mk(event.AckRecvd, 1, 2), mk(event.Recv, 3, 1),
			mk(event.Trans, 1, 2), mk(event.AckRecvd, 1, 2)},
		2: {mk(event.Recv, 1, 2), mk(event.Trans, 2, 3), mk(event.AckRecvd, 2, 3),
			mk(event.Trans, 2, 3)},
		3: {mk(event.Recv, 2, 3), mk(event.Trans, 3, 1), mk(event.AckRecvd, 3, 1)},
	})
}

// BenchmarkTableII measures reconstructing the paper's Table II Case 4
// walkthrough (experiment E-T2): a routing loop with one lost log record.
func BenchmarkTableII(b *testing.B) {
	eng, err := engine.New(engine.Options{Protocol: fsm.TableII(), Sink: 100})
	if err != nil {
		b.Fatal(err)
	}
	view := tableIIView()
	b.ReportAllocs()
	b.ResetTimer()
	var inferred int
	for i := 0; i < b.N; i++ {
		f := eng.AnalyzePacket(view)
		inferred = f.InferredCount()
	}
	b.ReportMetric(float64(inferred), "inferred/pkt")
}

// BenchmarkAnalyzePacket isolates single-packet reconstruction cost on a
// lossy multi-hop chain: the engine must infer a lost recv and a lost ack,
// exercising prerequisite driving and path inference, with no campaign or
// partitioning overhead around it.
func BenchmarkAnalyzePacket(b *testing.B) {
	pkt := event.PacketID{Origin: 1, Seq: 1}
	hops := 8
	path := make([]event.NodeID, hops+1)
	for i := range path {
		path[i] = event.NodeID(i + 1)
	}
	perNode := map[event.NodeID][]event.Event{}
	add := func(e event.Event) {
		perNode[e.Node] = append(perNode[e.Node], e)
	}
	add(event.Event{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt})
	for i := 0; i+1 < len(path); i++ {
		s, r := path[i], path[i+1]
		add(event.Event{Node: s, Type: event.Trans, Sender: s, Receiver: r, Packet: pkt})
		if i%3 != 1 { // every third hop loses its recv record
			add(event.Event{Node: r, Type: event.Recv, Sender: s, Receiver: r, Packet: pkt})
		}
		if i%4 != 2 { // and some hops lose the ack record
			add(event.Event{Node: s, Type: event.AckRecvd, Sender: s, Receiver: r, Packet: pkt})
		}
	}
	view := event.NewPacketView(pkt, perNode)
	eng, err := engine.New(engine.Options{Sink: path[len(path)-1]})
	if err != nil {
		b.Fatal(err)
	}
	nEvents := view.TotalEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := eng.AnalyzePacket(view)
		if len(f.Items) == 0 {
			b.Fatal("empty flow")
		}
	}
	b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkFig3Dissemination measures the Figure 3 scenarios (experiment
// E-T3): reconstructing dissemination rounds — including the single-record
// full-round cascade — on the negotiation protocol.
func BenchmarkFig3Dissemination(b *testing.B) {
	cfg := dissem.DefaultConfig(10, 50)
	lc := logging.DefaultConfig(cfg.Seed + 1)
	lc.LossRate = 0.3
	coll := logging.NewCollector(lc)
	if _, err := dissem.Run(cfg, coll); err != nil {
		b.Fatal(err)
	}
	logs := coll.Collection()
	eng, err := engine.New(engine.Options{
		Protocol: fsm.Dissemination(), Sink: 999, Group: cfg.Roster(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var inferred int
	for i := 0; i < b.N; i++ {
		res := eng.Analyze(logs)
		reports := dissem.Evaluate(res.Flows, cfg.Roster())
		inferred = 0
		for _, r := range reports {
			inferred += r.Inferred
		}
	}
	b.ReportMetric(float64(inferred), "inferred")
}

// BenchmarkFig4SinkView regenerates Figure 4 (source-view temporal
// distribution of losses via the sequence-gap sink view).
func BenchmarkFig4SinkView(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(c)
	}
	b.ReportMetric(float64(len(r.Points)), "losses")
	b.ReportMetric(float64(r.DistinctSources), "sources")
}

// BenchmarkFig5LossPositions regenerates Figure 5 (loss causes by REFILL
// loss position; concentration + sink band).
func BenchmarkFig5LossPositions(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig5(c)
	}
	b.ReportMetric(100*r.TopShare, "top5share%")
	b.ReportMetric(100*r.SinkShare, "sinkshare%")
}

// BenchmarkFig6DailyCauses regenerates Figure 6 (daily cause composition:
// snow spike, post-fix sink collapse).
func BenchmarkFig6DailyCauses(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6(c)
	}
	b.ReportMetric(float64(r.SnowDayLosses), "snowdaylosses")
	b.ReportMetric(100*r.SinkSharePreFix, "sinkpre%")
	b.ReportMetric(100*r.SinkSharePostFix, "sinkpost%")
}

// BenchmarkFig8Spatial regenerates Figure 8 (spatial distribution of
// received losses; the sink dominates).
func BenchmarkFig8Spatial(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(c)
	}
	sinkMax := 0.0
	if r.SinkIsMax {
		sinkMax = 1
	}
	b.ReportMetric(sinkMax, "sinkismax")
	b.ReportMetric(float64(len(r.BySite)), "sites")
}

// BenchmarkFig9CauseBreakdown regenerates Figure 9 / Section V-C (overall
// cause breakdown with sink splits).
func BenchmarkFig9CauseBreakdown(b *testing.B) {
	c := benchCampaign(b)
	b.ResetTimer()
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(c)
	}
	b.ReportMetric(100*r.Frac[ReceivedLoss], "received%")
	b.ReportMetric(100*r.Frac[AckedLoss], "acked%")
	b.ReportMetric(100*r.Frac[ServerOutage], "outage%")
}

// BenchmarkAnalyzeCampaign measures the full REFILL pipeline (engine +
// diagnosis) over the shared campaign's lossy logs — the system's hot path.
func BenchmarkAnalyzeCampaign(b *testing.B) {
	c := benchCampaign(b)
	an, err := core.NewAnalyzer(core.Options{Sink: c.Res.Sink, End: int64(c.Res.Duration)})
	if err != nil {
		b.Fatal(err)
	}
	events := c.Res.Logs.TotalEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := an.Analyze(c.Res.Logs)
		if len(out.Result.Flows) == 0 {
			b.Fatal("no flows")
		}
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAnalyzeCampaignNoFlows is BenchmarkAnalyzeCampaign under
// DropFlows, the shape of a refill run without flow flags: each flow is
// built into one recycled arena and dropped once counted and classified, so
// allocs/op pins that nothing is sized from the campaign for flows.
func BenchmarkAnalyzeCampaignNoFlows(b *testing.B) {
	c := benchCampaign(b)
	an, err := core.NewAnalyzer(core.Options{Sink: c.Res.Sink, End: int64(c.Res.Duration), DropFlows: true})
	if err != nil {
		b.Fatal(err)
	}
	events := c.Res.Logs.TotalEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := an.Analyze(c.Res.Logs)
		if out.Result.Flows != nil || out.Report.Total() == 0 || out.Result.InferredEvents == 0 {
			b.Fatal("flows kept, or nothing analyzed")
		}
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAccuracyVsLogLoss runs the E-A1 sweep at benchmark scale and
// reports REFILL's cause accuracy at the extremes.
func BenchmarkAccuracyVsLogLoss(b *testing.B) {
	base := workload.Tiny(11)
	var res *experiments.AccuracyVsLogLossResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AccuracyVsLogLoss(base, []float64{0, 0.4, 0.8})
		if err != nil {
			b.Fatal(err)
		}
	}
	refillAt := func(i int) float64 {
		for _, r := range res.Rows[i] {
			if r.Name == "refill" {
				return 100 * r.Acc.CauseRate()
			}
		}
		return 0
	}
	b.ReportMetric(refillAt(0), "cause%@0loss")
	b.ReportMetric(refillAt(2), "cause%@80loss")
}

// BenchmarkAblationFull / NoIntra / NoInter / Neither measure the engine
// variants over the same logs (experiment E-A2); the metric is cause
// accuracy against ground truth.
func benchmarkAblation(b *testing.B, disableIntra, disableInter bool) {
	c := benchCampaign(b)
	an, err := core.NewAnalyzer(core.Options{
		Sink: c.Res.Sink, End: int64(c.Res.Duration),
		DisableIntra: disableIntra, DisableInter: disableInter,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc core.Accuracy
	for i := 0; i < b.N; i++ {
		acc = core.Score(an.Analyze(c.Res.Logs).Report, c.Res.Truth.Fates)
	}
	b.ReportMetric(100*acc.CauseRate(), "cause%")
	b.ReportMetric(100*acc.PositionRate(), "position%")
}

func BenchmarkAblationFull(b *testing.B)    { benchmarkAblation(b, false, false) }
func BenchmarkAblationNoIntra(b *testing.B) { benchmarkAblation(b, true, false) }
func BenchmarkAblationNoInter(b *testing.B) { benchmarkAblation(b, false, true) }
func BenchmarkAblationNeither(b *testing.B) { benchmarkAblation(b, true, true) }

// BenchmarkEngineChain measures raw engine throughput on synthetic delivered
// chains of increasing length (scaling, experiment E-A3).
func BenchmarkEngineChain(b *testing.B) {
	for _, hops := range []int{2, 8, 32} {
		hops := hops
		b.Run(sizeName(hops), func(b *testing.B) {
			pkt := event.PacketID{Origin: 1, Seq: 1}
			path := make([]event.NodeID, hops+1)
			for i := range path {
				path[i] = event.NodeID(i + 1)
			}
			perNode := map[event.NodeID][]event.Event{}
			tick := int64(0)
			add := func(e event.Event) {
				tick += 10
				e.Time = tick
				perNode[e.Node] = append(perNode[e.Node], e)
			}
			add(event.Event{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt})
			for i := 0; i+1 < len(path); i++ {
				s, r := path[i], path[i+1]
				add(event.Event{Node: s, Type: event.Trans, Sender: s, Receiver: r, Packet: pkt})
				add(event.Event{Node: r, Type: event.Recv, Sender: s, Receiver: r, Packet: pkt})
				add(event.Event{Node: s, Type: event.AckRecvd, Sender: s, Receiver: r, Packet: pkt})
			}
			view := event.NewPacketView(pkt, perNode)
			eng, err := engine.New(engine.Options{Sink: path[len(path)-1]})
			if err != nil {
				b.Fatal(err)
			}
			nEvents := view.TotalEvents()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := eng.AnalyzePacket(view)
				if len(f.Items) != nEvents {
					b.Fatalf("items = %d, want %d", len(f.Items), nEvents)
				}
			}
			b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func sizeName(hops int) string {
	switch hops {
	case 2:
		return "hops=2"
	case 8:
		return "hops=8"
	default:
		return "hops=32"
	}
}

// BenchmarkCampaignSimulation measures the simulator substrate itself.
func BenchmarkCampaignSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(workload.Tiny(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Truth.Generated == 0 {
			b.Fatal("nothing generated")
		}
	}
}

// BenchmarkAnalyzeCampaignParallel measures the full pipeline at the
// all-cores fan-out over the shared campaign logs.
func BenchmarkAnalyzeCampaignParallel(b *testing.B) {
	c := benchCampaign(b)
	an, err := core.NewAnalyzer(core.Options{Sink: c.Res.Sink, End: int64(c.Res.Duration), Parallelism: -1})
	if err != nil {
		b.Fatal(err)
	}
	events := c.Res.Logs.TotalEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := an.Analyze(c.Res.Logs)
		if len(out.Result.Flows) == 0 {
			b.Fatal("no flows")
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkFlowOutput isolates flow construction and storage cost from
// partitioning: the same pre-built views are reconstructed through the
// standalone heap path (one exact-sized allocation set per flow) and through
// the shared flow arena (AnalyzeViews: spans carved out of chunked columns).
// Both run serially, so allocs/op is deterministic and benchguard can pin it.
func BenchmarkFlowOutput(b *testing.B) {
	c := benchCampaign(b)
	eng, err := engine.New(engine.Options{Sink: c.Res.Sink})
	if err != nil {
		b.Fatal(err)
	}
	views, _ := event.Partition(c.Res.Logs)
	if len(views) == 0 {
		b.Fatal("no views")
	}
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range views {
				if f := eng.AnalyzePacket(v); len(f.Items) == 0 {
					b.Fatal("empty flow")
				}
			}
		}
		b.ReportMetric(float64(len(views)), "flows")
	})
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flows := eng.AnalyzeViews(views)
			if len(flows) != len(views) {
				b.Fatal("flow count mismatch")
			}
		}
		b.ReportMetric(float64(len(views)), "flows")
	})
}

// BenchmarkDiagnosis isolates the diagnosis layer on the shared campaign's
// reconstructed flows. classify is one scratch-backed classifier pass over
// every flow — steady-state it performs ZERO allocations, the tentpole
// invariant benchguard pins (the scratch is warmed before the timer, since
// the baseline runs at -benchtime 1x). build is the full serial diagnosis
// (classification and outage application) producing a finished report;
// reads exercises the figure reads on a prebuilt report, each a fold of the
// outcomes when it is called: the point reads count before they allocate and
// sort their own result, and the Figure 6 daily bins scan the outcomes. All
// three run serially, so allocs/op is deterministic.
func BenchmarkDiagnosis(b *testing.B) {
	c := benchCampaign(b)
	flows := c.Out.Result.Flows
	ops := c.Out.Result.Operational
	end := int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	cfg := diagnosis.Config{Sink: c.Res.Sink, End: end}
	b.Run("classify", func(b *testing.B) {
		cl := diagnosis.NewClassifier()
		for _, f := range flows {
			cl.Classify(f) // warm the scratch to its high-water mark
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range flows {
				cl.Classify(f)
			}
		}
		b.ReportMetric(float64(len(flows)), "flows")
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		var rep *diagnosis.Report
		for i := 0; i < b.N; i++ {
			rep = diagnosis.BuildConfig(flows, ops, cfg)
		}
		b.ReportMetric(float64(rep.LossCount()), "losses")
	})
	b.Run("reads", func(b *testing.B) {
		rep := diagnosis.BuildConfig(flows, ops, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		var touched int
		for i := 0; i < b.N; i++ {
			touched = len(rep.Breakdown()) + len(rep.SourcePoints()) +
				len(rep.PositionPoints()) + len(rep.DailyComposition(dayLen, days)) +
				len(rep.LossesBySite(diagnosis.ReceivedLoss)) + len(rep.TopLossPositions(10)) +
				rep.LoopCount()
		}
		b.ReportMetric(float64(touched), "touched")
	})
}

// BenchmarkClockRecovery measures post-hoc clock estimation (E-A6) over the
// shared campaign's reconstructed flows; the metric is the mean absolute
// local-time error in seconds.
func BenchmarkClockRecovery(b *testing.B) {
	c := benchCampaign(b)
	var res *experiments.ClockRecoveryResult
	for i := 0; i < b.N; i++ {
		res = experiments.ClockRecovery(c)
	}
	b.ReportMetric(res.MAE/1e6, "mae_s")
	b.ReportMetric(res.NaiveMAE/1e6, "naive_s")
	b.ReportMetric(float64(res.Pairs), "pairs")
}

// BenchmarkLoggingPolicies measures the E-A4 policy study end to end and
// reports the selective policy's volume saving and accuracy.
func BenchmarkLoggingPolicies(b *testing.B) {
	var res *experiments.LoggingPolicyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.LoggingPolicies(workload.Tiny(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		if r.Name == "selective" {
			b.ReportMetric(100*r.VolumeFrac, "sel_volume%")
			b.ReportMetric(100*r.Acc.CauseRate(), "sel_cause%")
		}
	}
}

// BenchmarkBinaryCodec measures the compact log encoding round trip against
// the text codec on the shared campaign's logs.
func BenchmarkBinaryCodec(b *testing.B) {
	c := benchCampaign(b)
	logs := c.Res.Logs
	b.Run("write-binary", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := event.WriteCollectionBinary(&buf, logs); err != nil {
				b.Fatal(err)
			}
			n = buf.Len()
		}
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("write-text", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := event.WriteCollection(&buf, logs); err != nil {
				b.Fatal(err)
			}
			n = buf.Len()
		}
		b.ReportMetric(float64(n), "bytes")
	})
	var bin, text bytes.Buffer
	if err := event.WriteCollectionBinary(&bin, logs); err != nil {
		b.Fatal(err)
	}
	if err := event.WriteCollection(&text, logs); err != nil {
		b.Fatal(err)
	}
	read := func(raw []byte, readLogs func(io.Reader) (*Collection, error)) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := readLogs(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				if got.TotalEvents() != logs.TotalEvents() {
					b.Fatal("count mismatch")
				}
			}
		}
	}
	b.Run("read-binary", read(bin.Bytes(), ReadLogsBinary))
	b.Run("read-text", read(text.Bytes(), ReadLogs))
}

// BenchmarkSnapshot measures the columnar snapshot path on the shared
// campaign's logs: writing the file, the zero-copy open (the headline —
// section geometry checks plus slice casts, no per-event work), and open
// followed by a full batch analysis against the read-binary-then-analyze
// pipeline it replaces.
func BenchmarkSnapshot(b *testing.B) {
	c := benchCampaign(b)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	path := filepath.Join(b.TempDir(), "campaign.snap")
	if err := WriteSnapshot(path, logs); err != nil {
		b.Fatal(err)
	}
	an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end})
	if err != nil {
		b.Fatal(err)
	}
	rows := logs.TotalEvents()

	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteSnapshot(path, logs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := OpenSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			if s.Rows() != rows {
				b.Fatalf("rows = %d, want %d", s.Rows(), rows)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := OpenSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			out := an.Analyze(s.Collection())
			if out.Report.Total() == 0 {
				b.Fatal("no packets")
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-analyze-windowed", func(b *testing.B) {
		// The out-of-core path on the same snapshot: windowed reconstruction
		// reading each window's rows from the file, sized to force several
		// residency windows.
		// Serial (Parallelism 1) so allocs/op is deterministic for benchguard;
		// flows retained, as cmd/refill does and as the baseline row records.
		wan, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		opts := SnapshotOptions{WindowRows: rows/6 + 1, RetainFlows: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := OpenSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			out := wan.AnalyzeSnapshot(s, opts)
			if out.Report.Total() == 0 {
				b.Fatal("no packets")
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	var bin bytes.Buffer
	if err := event.WriteCollectionBinary(&bin, logs); err != nil {
		b.Fatal(err)
	}
	raw := bin.Bytes()
	b.Run("read-binary-analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := event.ReadCollectionBinary(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			out := an.Analyze(got)
			if out.Report.Total() == 0 {
				b.Fatal("no packets")
			}
		}
	})
}

var (
	skewOnce sync.Once
	skewLogs *Collection
	skewSink NodeID
	skewEnd  int64
)

// skewedBench builds the shared hot-origin campaign once (see skewedLogs in
// sched_equiv_test.go: the busiest origin of a simulated campaign replicated
// until it dominates the packet volume).
func skewedBench(b *testing.B) (*Collection, NodeID, int64) {
	b.Helper()
	skewOnce.Do(func() {
		skewLogs, skewSink, skewEnd = skewedLogs(b, 13, 96)
	})
	if skewLogs == nil {
		b.Fatal("skewed campaign failed to build")
	}
	return skewLogs, skewSink, skewEnd
}

// BenchmarkAnalyzeSkewed is the fan-out's headline number: a hot-origin
// campaign analyzed on one worker per P, every one pulling ranges off the
// driver's shared cursor, so the hot origin's views spread like any others.
// The worker count is GOMAXPROCS, not a constant: more workers than Ps take
// turns on them, and the bytes they allocate then depend on the scheduler,
// which a B/op gate cannot hold. The gate runs it at -cpu 1.
func BenchmarkAnalyzeSkewed(b *testing.B) {
	logs, sink, end := skewedBench(b)
	events := logs.TotalEvents()
	b.Run("workers=procs", func(b *testing.B) {
		an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end, Parallelism: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := an.Analyze(logs)
			if len(out.Result.Flows) == 0 {
				b.Fatal("no flows")
			}
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkSessionIngest measures the resident ingest path end to end in the
// steady-state shape of cmd/refill-serve: per-node fragments appended in
// rounds, a watermark advance finalizing each retired window, and a final
// drain. Windows run serially (Parallelism 1) so allocs/op is deterministic
// and benchguard can pin it. Fragments are spans of each node's columns fed
// through AppendRows, as the service feeds a decoded body; the schedule is
// built outside the timer.
func BenchmarkSessionIngest(b *testing.B) { benchSession(b, false) }

// BenchmarkSessionSnapshot is BenchmarkSessionIngest with one live Snapshot
// after every round's advance, as refill-serve's GET /v1/report reads the
// session beside its writers. Its allocs/op gate the live read: a settle of
// the outcome runs into packet-ID order and one copy of the outcomes, which
// is all a report holds.
func BenchmarkSessionSnapshot(b *testing.B) { benchSession(b, true) }

// benchSession runs the session benchmarks' schedule, reading a live
// Snapshot after every advance when snapshots is set.
func benchSession(b *testing.B, snapshots bool) {
	c := benchCampaign(b)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	horizon := referenceMaxPacketSpread(logs)
	an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	nodes := logs.Nodes()
	const rounds = 8
	// A fragment is a span of its node's columns, appended in place as
	// refill-serve appends a decoded body.
	type frag struct {
		node   NodeID
		rows   *Batch
		lo, hi int
	}
	var schedule [rounds][]frag
	for _, n := range nodes {
		rows := logs.Log(n).Batch()
		for r := 0; r < rounds; r++ {
			lo, hi := rows.Len()*r/rounds, rows.Len()*(r+1)/rounds
			schedule[r] = append(schedule[r], frag{node: n, rows: rows, lo: lo, hi: hi})
		}
	}
	events := logs.TotalEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := an.NewSession(SessionConfig{Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range nodes {
			sess.Register(n)
		}
		for r := 0; r < rounds; r++ {
			for _, f := range schedule[r] {
				if err := sess.AppendRows(f.node, f.rows, f.lo, f.hi); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sess.Advance(end); err != nil {
				b.Fatal(err)
			}
			if snapshots && sess.Snapshot().Total() == 0 {
				b.Fatal("live report is empty after an advance")
			}
		}
		_, rep := sess.Drain()
		if rep.Total() == 0 {
			b.Fatal("no packets")
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
