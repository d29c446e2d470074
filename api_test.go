package refill

// Facade-level tests: everything a downstream user touches, exercised through
// the public API only.

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/clocksync"
)

// mkEvent builds one log record through the public types.
func mkEvent(t EventType, s, r NodeID, pkt PacketID) Event {
	node := r
	if t.SenderSide() || t.NodeLocal() {
		node = s
	}
	return Event{Node: node, Type: t, Sender: s, Receiver: r, Packet: pkt}
}

func TestPublicTableIICase1(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 1}
	logs := NewCollection()
	logs.Add(mkEvent(Trans, 1, 2, pkt))
	logs.Add(mkEvent(Recv, 2, 3, pkt))
	an, err := NewAnalyzer(AnalyzerOptions{Sink: 100, Protocol: TableIIProtocol()})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(logs)
	if len(out.Result.Flows) != 1 {
		t.Fatalf("flows = %d", len(out.Result.Flows))
	}
	want := "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"
	if got := out.Result.Flows[0].String(); got != want {
		t.Errorf("flow = %s", got)
	}
}

func TestPublicLogRoundTrip(t *testing.T) {
	pkt := PacketID{Origin: 3, Seq: 9}
	logs := NewCollection()
	logs.Add(mkEvent(Gen, 3, NoNode, pkt))
	logs.Add(mkEvent(Trans, 3, 4, pkt))
	var buf bytes.Buffer
	if err := WriteLogs(&buf, logs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalEvents() != 2 {
		t.Errorf("round trip lost events: %d", back.TotalEvents())
	}
}

func TestPublicCampaignPipeline(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(5))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(camp.Logs)
	acc := Score(out.Report, camp.Truth.Fates)
	if acc.Coverage() < 0.9 {
		t.Errorf("coverage = %v", acc.Coverage())
	}
	// Rendering helpers produce non-empty output.
	if RenderBreakdown(out.Report) == "" {
		t.Error("breakdown empty")
	}
	if RenderDaily(out.Report, int64(camp.Duration)/2, 2) == "" {
		t.Error("daily empty")
	}
	if s := RenderAccuracy([]AccuracyRow{{Name: "refill", Acc: acc}}); !strings.Contains(s, "refill") {
		t.Error("accuracy table missing row")
	}
	// Traces and classification work through the facade.
	traces := BuildTraces(out.Result.Flows)
	if len(traces) != len(out.Result.Flows) {
		t.Error("trace count mismatch")
	}
	f := out.Result.Flows[0]
	_ = Classify(f)
	if BuildTrace(f).PathString() == "" {
		t.Error("empty path")
	}
}

func TestPublicBaselines(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	lost := SinkView(camp.Logs, int64(camp.Config.Period))
	if len(lost) == 0 {
		t.Fatal("sink view found nothing")
	}
	naive := NaiveAnalyze(camp.Logs)
	clock := ClockMergeAnalyze(camp.Logs)
	tc := TimeCorrAnalyze(camp.Logs, lost, 3_600_000_000)
	if len(naive) == 0 || len(clock) == 0 || len(tc) == 0 {
		t.Error("baselines returned nothing")
	}
	wit := WitMergeability(camp.Logs)
	if wit.MergeableRate() != 0 {
		t.Errorf("local logs should have no common events, rate=%v", wit.MergeableRate())
	}
	// Baseline verdicts are scoreable.
	j := make(map[PacketID]Judgment, len(naive))
	for id, v := range naive {
		j[id] = Judgment{Cause: v.Cause, Position: v.Position}
	}
	acc := ScoreJudgments(j, camp.Truth.Fates)
	if acc.Compared == 0 {
		t.Error("nothing scored")
	}
}

func TestPublicEngineParallel(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(7))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineOptions{Sink: camp.Sink})
	if err != nil {
		t.Fatal(err)
	}
	serial := eng.Analyze(camp.Logs)
	an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	parallel := an.Analyze(camp.Logs).Result
	if len(serial.Flows) != len(parallel.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(serial.Flows), len(parallel.Flows))
	}
	for i := range serial.Flows {
		if serial.Flows[i].String() != parallel.Flows[i].String() {
			t.Fatal("parallel analysis diverged from serial")
		}
	}
}

func TestPublicLoggingPolicies(t *testing.T) {
	for _, p := range []LogPolicy{FullLogging(), SelectiveLogging(),
		SampledLogging(0.5, 1), ReceiverSideLogging()} {
		if p.Name() == "" {
			t.Error("policy without a name")
		}
	}
	coll := NewLogCollector(LogCollectorConfig{Seed: 1}).WithPolicy(SelectiveLogging())
	pkt := PacketID{Origin: 1, Seq: 1}
	coll.Record(mkEvent(Trans, 1, 2, pkt))
	coll.Record(mkEvent(Trans, 1, 2, pkt))
	if coll.Collection().TotalEvents() != 1 {
		t.Errorf("selective policy kept %d, want 1", coll.Collection().TotalEvents())
	}
}

func TestPublicExtendedProtocol(t *testing.T) {
	cfg := TinyCampaign(8)
	cfg.QueueEvents = true
	camp, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration),
		Protocol: ExtendedCTP()})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(camp.Logs)
	acc := Score(out.Report, camp.Truth.Fates)
	if acc.CauseRate() < 0.4 {
		t.Errorf("extended-protocol cause rate = %v", acc.CauseRate())
	}
}

func TestPublicCausesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Causes() {
		names[c.String()] = true
	}
	for _, want := range []string{"delivered", "received", "acked", "timeout",
		"dup", "overflow", "transit", "outage", "unknown"} {
		if !names[want] {
			t.Errorf("missing cause %q", want)
		}
	}
}

// reportFingerprint renders an output to a comparable string: flows in order
// plus the full breakdown table.
func reportFingerprint(out *Output) string {
	var sb strings.Builder
	for _, f := range out.Result.Flows {
		sb.WriteString(f.Packet.String())
		sb.WriteByte('\t')
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	sb.WriteString(RenderBreakdown(out.Report))
	return sb.String()
}

// analyzeStreamAlias calls the deprecated Analyzer.AnalyzeStream — an alias of
// Analyze at the all-cores default, kept for the benchmark's probe — so the
// suites that pin it share one call site.
func analyzeStreamAlias(an *Analyzer, logs *Collection) *Output {
	//lint:ignore SA1019 the alias stays pinned until the benchmark drops its probe
	return an.AnalyzeStream(logs)
}

func TestPublicParallelismAndStreamIdentical(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(9))
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	want := reportFingerprint(base.Analyze(camp.Logs))
	for _, workers := range []int{-1, 1, 4} {
		an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration), Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := reportFingerprint(an.Analyze(camp.Logs)); got != want {
			t.Fatalf("Parallelism=%d diverged from serial", workers)
		}
		if got := reportFingerprint(analyzeStreamAlias(an, camp.Logs)); got != want {
			t.Fatalf("AnalyzeStream with Parallelism=%d diverged from serial", workers)
		}
	}
	if got := reportFingerprint(analyzeStreamAlias(base, camp.Logs)); got != want {
		t.Fatal("AnalyzeStream with default options diverged from serial")
	}
}

// TestPublicRecoverClocks checks that the facade's RecoverClocks is
// clocksync.Estimate, the one internal name this file reaches for.
func TestPublicRecoverClocks(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(5))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(camp.Logs)
	got := RecoverClocks(out.Result.Flows, Server)
	want := clocksync.Estimate(out.Result.Flows, Server)
	if len(got.Nodes) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("RecoverClocks = %+v, clocksync.Estimate = %+v", got, want)
	}
}

// TestAnalyzeHugeNodeID analyzes a single gen record from node 3,000,000,000,
// a valid NodeID far above any real deployment's. The report's per-position
// table grows with the positions seen, not with the largest ID, so the
// outcome arrives in bounded memory and is counted at its position.
func TestAnalyzeHugeNodeID(t *testing.T) {
	const hugeNode NodeID = 3_000_000_000
	logs := NewCollection()
	logs.Add(mkEvent(Gen, hugeNode, 0, PacketID{Origin: hugeNode, Seq: 1}))
	an, err := NewAnalyzer(AnalyzerOptions{Sink: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := an.Analyze(logs)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("analyzing one record allocated %d bytes", grew)
	}
	rep := out.Report
	if rep.Total() != 1 || rep.Outcomes[0].Position != hugeNode {
		t.Fatalf("outcomes %+v, want one at node %v", rep.Outcomes, hugeNode)
	}
	if got := rep.LossesBySite(rep.Outcomes[0].Cause); !reflect.DeepEqual(got, map[NodeID]int{hugeNode: 1}) {
		t.Errorf("LossesBySite = %v, want the one loss at %v", got, hugeNode)
	}
}
