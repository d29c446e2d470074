package core

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/event/snapfile"
	"repro/internal/fsm"
	"repro/internal/sim"
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

// TestReportReadsFollowOutcomes edits one delivered outcome of a built report
// in place — it becomes a looped loss at the sink — and requires every read to
// match a direct tally of the outcomes the report now holds. The report is
// built both ways a caller gets one: diagnosis.BuildConfig over the flows,
// and the fused Analyze.
func TestReportReadsFollowOutcomes(t *testing.T) {
	res, out := runTiny(t, 3)
	cfg := diagnosis.Config{Sink: res.Sink, End: int64(res.Duration)}
	reports := map[string]*diagnosis.Report{
		"build":   diagnosis.BuildConfig(out.Result.Flows, out.Result.Operational, cfg),
		"analyze": out.Report,
	}
	for _, name := range []string{"build", "analyze"} {
		rep := reports[name]
		i := slices.IndexFunc(rep.Outcomes, func(o diagnosis.Outcome) bool { return o.Cause == diagnosis.Delivered })
		if i < 0 {
			t.Fatalf("%s: no delivered outcome to relabel", name)
		}
		o := &rep.Outcomes[i]
		o.Cause, o.Position, o.TimeValid, o.Loop = diagnosis.ReceivedLoss, res.Sink, true, !o.Loop
		o.LossTime = int64(res.Duration) - 1
		checkReadsTally(t, name, rep, res.Config.Days)
	}
}

// checkReadsTally checks every read of rep against a direct tally of its
// outcomes.
func checkReadsTally(t *testing.T, name string, rep *diagnosis.Report, days int) {
	t.Helper()
	type site struct {
		Node  event.NodeID
		Count int
	}
	breakdown := make(map[diagnosis.Cause]int)
	split := make(map[diagnosis.Cause]diagnosis.SinkSplit)
	bySite := make(map[diagnosis.Cause]map[event.NodeID]int)
	daily := make([]map[diagnosis.Cause]int, days)
	for d := range daily {
		daily[d] = make(map[diagnosis.Cause]int)
	}
	perSite := make(map[event.NodeID]int)
	var src, pos []diagnosis.Point
	losses, loops := 0, 0
	for _, o := range rep.Outcomes {
		breakdown[o.Cause]++
		s := split[o.Cause]
		if o.Position == rep.Sink {
			s.AtSink++
		} else {
			s.Elsewhere++
		}
		split[o.Cause] = s
		if o.Position != event.NoNode {
			if bySite[o.Cause] == nil {
				bySite[o.Cause] = make(map[event.NodeID]int)
			}
			bySite[o.Cause][o.Position]++
		}
		if o.Loop {
			loops++
		}
		if o.Cause == diagnosis.Delivered {
			continue
		}
		losses++
		day := 0
		if o.TimeValid {
			day = int(o.LossTime / int64(sim.Day))
		}
		daily[min(max(day, 0), days-1)][o.Cause]++
		if o.Position != event.NoNode {
			perSite[o.Position]++
		}
		if o.TimeValid {
			src = append(src, diagnosis.Point{Time: o.LossTime, Node: o.Packet.Origin, Cause: o.Cause})
			if o.Position != event.NoNode {
				pos = append(pos, diagnosis.Point{Time: o.LossTime, Node: o.Position, Cause: o.Cause})
			}
		}
	}
	byTime := func(p, q diagnosis.Point) int {
		return cmp.Or(cmp.Compare(p.Time, q.Time), cmp.Compare(p.Node, q.Node), cmp.Compare(p.Cause, q.Cause))
	}
	slices.SortFunc(src, byTime)
	slices.SortFunc(pos, byTime)
	var top []site
	//refill:allow maprange — sorted below
	for n, c := range perSite {
		top = append(top, site{n, c})
	}
	slices.SortFunc(top, func(a, b site) int { return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Node, b.Node)) })

	if got := rep.LossCount(); got != losses {
		t.Errorf("%s: LossCount = %d, want %d", name, got, losses)
	}
	if got := rep.Breakdown(); !reflect.DeepEqual(got, breakdown) {
		t.Errorf("%s: Breakdown = %v, want %v", name, got, breakdown)
	}
	if got := rep.LoopCount(); got != loops {
		t.Errorf("%s: LoopCount = %d, want %d", name, got, loops)
	}
	for _, c := range diagnosis.Causes() {
		if got, want := rep.LossFraction(c), float64(breakdown[c])/float64(losses); got != want {
			t.Errorf("%s: LossFraction(%v) = %v, want %v", name, c, got, want)
		}
		if got := rep.SplitBySink(c); got != split[c] {
			t.Errorf("%s: SplitBySink(%v) = %+v, want %+v", name, c, got, split[c])
		}
		want := bySite[c]
		if want == nil {
			want = map[event.NodeID]int{}
		}
		if got := rep.LossesBySite(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LossesBySite(%v) = %v, want %v", name, c, got, want)
		}
	}
	if got := rep.SourcePoints(); !reflect.DeepEqual(got, src) {
		t.Errorf("%s: SourcePoints differ from a direct tally (%d points, want %d)", name, len(got), len(src))
	}
	if got := rep.PositionPoints(); !reflect.DeepEqual(got, pos) {
		t.Errorf("%s: PositionPoints differ from a direct tally (%d points, want %d)", name, len(got), len(pos))
	}
	if got := rep.DailyComposition(int64(sim.Day), days); !reflect.DeepEqual(got, daily) {
		t.Errorf("%s: DailyComposition = %v, want %v", name, got, daily)
	}
	got := rep.TopLossPositions(len(top) + 1)
	if len(got) != len(top) {
		t.Fatalf("%s: TopLossPositions lists %d positions, want %d", name, len(got), len(top))
	}
	for k := range top {
		if got[k].Node != top[k].Node || got[k].Count != top[k].Count {
			t.Errorf("%s: TopLossPositions[%d] = %+v, want %+v", name, k, got[k], top[k])
		}
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
