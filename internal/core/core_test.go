package core

import (
	"encoding/binary"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/event/snapfile"
	"repro/internal/fsm"
	"repro/internal/sim/network"
	"repro/internal/workload"
)

func TestNewAnalyzerRequiresSink(t *testing.T) {
	_, err := NewAnalyzer(Options{Protocol: fsm.DefaultCTP()})
	if err == nil {
		t.Fatal("expected error without sink")
	}
	// The message names the field to set, which exists.
	if !strings.Contains(err.Error(), "Options.Sink") {
		t.Errorf("error %q does not name Options.Sink", err)
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
	opts := SnapshotOptions{WindowRows: 64, RetainFlows: true}
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

	// Had the damaged value been taken as the horizon, packets would split.
	scanSpread = func(*event.Collection) int64 { return int64(damaged) }
	if split := an.AnalyzeSnapshot(snap, opts); len(split.Result.Flows) == len(want.Result.Flows) {
		t.Errorf("horizon %d (true %d) split no packet: the damage proves nothing", damaged, spread)
	}
}
