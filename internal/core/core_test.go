package core

import (
	"encoding/binary"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/event/snapfile"
	"repro/internal/fsm"
	"repro/internal/sim/network"
	"repro/internal/workload"
)

func TestNewAnalyzerRequiresSink(t *testing.T) {
	if _, err := NewAnalyzer(Options{}); err == nil {
		t.Fatal("expected error without sink")
	}
}

// runTiny runs the tiny campaign once and analyzes it.
func runTiny(t *testing.T, seed int64) (*workload.Result, *Output) {
	t.Helper()
	res, err := workload.Run(workload.Tiny(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(Options{Sink: res.Sink, End: int64(res.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	return res, a.Analyze(res.Logs)
}

func TestEndToEndCampaignAnalysis(t *testing.T) {
	res, out := runTiny(t, 42)
	if len(out.Result.Flows) == 0 {
		t.Fatal("no flows reconstructed")
	}
	// Coverage: nearly every generated packet should surface (the server
	// log alone witnesses delivered ones; 20% log loss cannot hide many).
	acc := Score(out.Report, res.Truth.Fates)
	if acc.Truth == 0 {
		t.Fatal("no scoreable ground truth")
	}
	if acc.Coverage() < 0.95 {
		t.Errorf("coverage = %.3f, want >= 0.95 (missing %d)", acc.Coverage(), acc.MissingFlows)
	}
	if acc.DeliveredRate() < 0.97 {
		t.Errorf("delivered agreement = %.3f, want >= 0.97", acc.DeliveredRate())
	}
	t.Logf("accuracy: coverage=%.3f delivered=%.3f cause=%.3f position=%.3f (lostBoth=%d)",
		acc.Coverage(), acc.DeliveredRate(), acc.CauseRate(), acc.PositionRate(), acc.LostBoth)
	if acc.LostBoth > 10 {
		if acc.CauseRate() < 0.6 {
			t.Errorf("cause accuracy = %.3f, want >= 0.6", acc.CauseRate())
		}
		if acc.PositionRate() < 0.6 {
			t.Errorf("position accuracy = %.3f, want >= 0.6", acc.PositionRate())
		}
	}
}

func TestAblationsHurtAccuracy(t *testing.T) {
	res, err := workload.Run(workload.Tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewAnalyzer(Options{Sink: res.Sink, End: int64(res.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	crippled, err := NewAnalyzer(Options{Sink: res.Sink, End: int64(res.Duration),
		DisableIntra: true, DisableInter: true})
	if err != nil {
		t.Fatal(err)
	}
	accFull := Score(full.Analyze(res.Logs).Report, res.Truth.Fates)
	accCrip := Score(crippled.Analyze(res.Logs).Report, res.Truth.Fates)
	// Without inference the engine discards events it cannot place and
	// never reconstructs cross-node structure: agreement must not exceed
	// the full pipeline's.
	fullScore := accFull.CauseAgree + accFull.PositionAgree + accFull.DeliveredAgree
	cripScore := accCrip.CauseAgree + accCrip.PositionAgree + accCrip.DeliveredAgree
	if cripScore > fullScore {
		t.Errorf("ablated pipeline scored higher: %d vs %d", cripScore, fullScore)
	}
}

func TestOutputFlowLookup(t *testing.T) {
	_, out := runTiny(t, 42)
	first := out.Result.Flows[0]
	if got := out.Flow(first.Packet); got != first {
		t.Error("Flow lookup failed")
	}
	if got := out.Flow(event.PacketID{Origin: 9999, Seq: 1}); got != nil {
		t.Error("lookup of unknown packet should be nil")
	}
}

func TestScoreSkipsCensored(t *testing.T) {
	res, out := runTiny(t, 42)
	fates := res.Truth.Fates
	// Inject a censored fate; Score must skip it.
	censored := event.PacketID{Origin: 12345, Seq: 1}
	fates[censored] = network.Fate{Cause: diagnosis.Unknown}
	acc := Score(out.Report, fates)
	if acc.MissingFlows > 0 && acc.Compared+acc.MissingFlows != acc.Truth {
		t.Errorf("accounting broken: %+v", acc)
	}
}

func TestConfusionMatrixConsistency(t *testing.T) {
	res, out := runTiny(t, 42)
	cm := ConfusionMatrix(out.Report, res.Truth.Fates)
	acc := Score(out.Report, res.Truth.Fates)
	total, diag := 0, 0
	for gt, row := range cm {
		for re, n := range row {
			total += n
			if gt == re {
				diag += n
			}
		}
	}
	if total != acc.LostBoth {
		t.Errorf("confusion total %d != LostBoth %d", total, acc.LostBoth)
	}
	if diag != acc.CauseAgree {
		t.Errorf("confusion diagonal %d != CauseAgree %d", diag, acc.CauseAgree)
	}
}

// TestWithEngineOptionsMerges pins the merge semantics: zero fields in the
// imported engine.Options preserve whatever the base Options (or an earlier
// functional option) set — WithEngineOptions(engine.Options{MaxDepth: 512})
// must not silently reset the protocol to the CTP default or drop the sink.
func TestWithEngineOptionsMerges(t *testing.T) {
	ext := fsm.ExtendedCTP()
	group := []event.NodeID{1, 2, 3}
	o := Options{
		Sink:         7,
		Protocol:     ext,
		DisableIntra: true,
		MaxInferred:  99,
		MaxDepth:     100,
		Group:        group,
	}
	WithEngineOptions(engine.Options{MaxDepth: 512, DisableInter: true})(&o)
	if o.Protocol != ext {
		t.Error("zero eo.Protocol overwrote the configured protocol")
	}
	if o.Sink != 7 {
		t.Error("zero eo.Sink overwrote the configured sink")
	}
	if !o.DisableIntra || !o.DisableInter {
		t.Errorf("ablations = intra:%v inter:%v, want both set", o.DisableIntra, o.DisableInter)
	}
	if o.MaxInferred != 99 {
		t.Errorf("MaxInferred = %d, want 99 preserved", o.MaxInferred)
	}
	if o.MaxDepth != 512 {
		t.Errorf("MaxDepth = %d, want 512 applied", o.MaxDepth)
	}
	if len(o.Group) != 3 {
		t.Errorf("Group = %v, want preserved roster", o.Group)
	}

	// Non-zero fields still override.
	WithEngineOptions(engine.Options{Protocol: fsm.DefaultCTP(), Sink: 9, Group: []event.NodeID{4}})(&o)
	if o.Protocol == ext || o.Sink != 9 || len(o.Group) != 1 {
		t.Error("non-zero engine options failed to override")
	}
}

// TestAnalyzeSnapshotDistrustsDamagedSpread: a snapshot whose recorded spread
// has a flipped bit fails that section's CRC, so AnalyzeSnapshot scans for
// the horizon instead — and the windowed output equals batch. Trusted, the
// damaged value (less than half the true spread) would split packets.
func TestAnalyzeSnapshotDistrustsDamagedSpread(t *testing.T) {
	res, err := workload.Run(workload.Tiny(42))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := event.WriteSnapshot(path, res.Logs); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	off, _, ok := f.SectionRange(11) // the recorded spread (snapshot.go's format header)
	if !ok {
		t.Fatal("WriteSnapshot recorded no spread")
	}
	spread := binary.LittleEndian.Uint64(img[off:])
	damaged := spread &^ (1 << (bits.Len64(spread) - 1)) // its top set bit cleared
	if damaged == 0 {
		t.Fatalf("spread %d is a power of two; clearing its top bit leaves no horizon to trust", spread)
	}
	binary.LittleEndian.PutUint64(img[off:], damaged)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := event.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got, ok := snap.RecordedSpread(); ok {
		t.Fatalf("a spread that fails its CRC was trusted: %d", got)
	}

	scans := 0
	defer func(scan func(*event.Collection) int64) { scanSpread = scan }(scanSpread)
	scanSpread = func(c *event.Collection) int64 { scans++; return event.MaxPacketSpread(c) }

	an, err := NewAnalyzer(Options{Sink: res.Sink, End: int64(res.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(res.Logs)
	opts := SnapshotOptions{WindowRows: 64, SessionConfig: SessionConfig{RetainFlows: true}}
	got := an.AnalyzeSnapshot(snap, opts)
	if scans != 1 {
		t.Errorf("the horizon was scanned %d times, want once", scans)
	}
	if !reflect.DeepEqual(want.Result.Flows, got.Result.Flows) {
		t.Errorf("%d windowed flows diverged from batch's %d", len(got.Result.Flows), len(want.Result.Flows))
	}
	if !reflect.DeepEqual(want.Report.Outcomes, got.Report.Outcomes) || !reflect.DeepEqual(want.Report.Outages, got.Report.Outages) {
		t.Error("windowed report diverged from batch")
	}

	opts.Horizon = int64(damaged)
	if split := an.AnalyzeSnapshot(snap, opts); len(split.Result.Flows) == len(want.Result.Flows) {
		t.Errorf("horizon %d (true %d) split no packet: the damage proves nothing", damaged, spread)
	}
}
