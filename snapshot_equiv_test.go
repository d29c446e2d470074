package refill

// Equivalence harness for the columnar snapshot layer: analysis over a
// memory-mapped snapshot must be byte-identical — flows, reports, and
// re-serializations — to analysis over the in-memory collection the snapshot
// was written from, and a session resumed from a checkpoint must drain into
// exactly what an uninterrupted session (and batch analysis) produces, for a
// crash at every checkpoint epoch. CI runs this file under -race and again
// with the refill_nommap build tag, so both the mmap and the portable
// read-into-aligned-buffer open paths carry the same guarantee.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/event/snapfile"
	"repro/internal/sim"
)

// snapshotPath writes logs to a snapshot file under t.TempDir.
func snapshotPath(t *testing.T, logs *Collection) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.snap")
	if err := WriteSnapshot(path, logs); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotAnalyzeEquivalence pins the zero-copy read path: every
// analysis mode over the mapped collection must equal the same mode over the
// original, and every serialization of the mapped collection must be
// byte-identical to serializing the original.
func TestSnapshotAnalyzeEquivalence(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	an, err := NewAnalyzer(AnalyzerOptions{},
		WithSink(sink), WithWindow(0, end), WithDailyBins(dayLen, days))
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	if want.Report.Total() == 0 || len(want.Report.Outages) == 0 {
		t.Fatal("degenerate campaign: need losses and outages to prove anything")
	}

	path := snapshotPath(t, logs)
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.Verify(); err != nil {
		t.Fatalf("fresh snapshot fails Verify: %v", err)
	}
	mapped := snap.Collection()

	t.Run("analyze", func(t *testing.T) {
		got := an.Analyze(mapped)
		if !reflect.DeepEqual(want.Result.Flows, got.Result.Flows) {
			t.Error("flows over the mapped collection diverged")
		}
		if !reflect.DeepEqual(want.Result.Operational, got.Result.Operational) {
			t.Error("operational events diverged")
		}
		checkSameReport(t, want.Report, got.Report, dayLen, days)
	})
	t.Run("analyze-stream", func(t *testing.T) {
		got := analyzeStreamAlias(an, mapped)
		if !reflect.DeepEqual(want.Result.Flows, got.Result.Flows) {
			t.Error("streamed flows over the mapped collection diverged")
		}
		checkSameReport(t, want.Report, got.Report, dayLen, days)
	})
	t.Run("serializations", func(t *testing.T) {
		var wantBin, gotBin bytes.Buffer
		if err := WriteLogsBinary(&wantBin, logs); err != nil {
			t.Fatal(err)
		}
		if err := WriteLogsBinary(&gotBin, mapped); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBin.Bytes(), gotBin.Bytes()) {
			t.Error("binary serialization of the mapped collection diverged")
		}
		var wantText, gotText bytes.Buffer
		if err := WriteLogs(&wantText, logs); err != nil {
			t.Fatal(err)
		}
		if err := WriteLogs(&gotText, mapped); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantText.Bytes(), gotText.Bytes()) {
			t.Error("text serialization of the mapped collection diverged")
		}
		// Re-snapshotting the mapped collection reproduces the file bit for
		// bit: the format round-trips through itself with no drift.
		again := filepath.Join(t.TempDir(), "again.snap")
		if err := WriteSnapshot(again, mapped); err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		re, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, re) {
			t.Error("re-snapshot of the mapped collection is not byte-identical")
		}
	})
}

// TestSnapshotCheckpointResumeEquivalence crashes a session at EVERY
// checkpoint epoch of a fragment schedule and requires the resumed session's
// drained report — raw outcomes, every aggregate read, and the rendered
// breakdown — to match both the uninterrupted session and batch analysis.
func TestSnapshotCheckpointResumeEquivalence(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	horizon := referenceMaxPacketSpread(logs)
	an, err := NewAnalyzer(AnalyzerOptions{},
		WithSink(sink), WithWindow(0, end), WithDailyBins(dayLen, days))
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	nodes := logs.Nodes()
	sc := SessionConfig{Horizon: horizon}

	newSess := func(t *testing.T) *Session {
		t.Helper()
		sess, err := an.NewSession(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			sess.Register(n)
		}
		return sess
	}
	// round r feeds every node's r-th log slice, then advances.
	const rounds = 4
	feed := func(t *testing.T, sess *Session, from, to int) {
		t.Helper()
		for r := from; r < to; r++ {
			for _, n := range nodes {
				evs := logs.Log(n).Events()
				lo, hi := len(evs)*r/rounds, len(evs)*(r+1)/rounds
				if err := sess.Append(n, evs[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Advance(end); err != nil {
				t.Fatal(err)
			}
		}
	}

	checkFlowTotals(t, want.Result)
	ref := newSess(t)
	feed(t, ref, 0, rounds)
	refRes, refRep := ref.Drain()
	checkDrained(t, want.Result, refRes, false)
	checkSameReport(t, want.Report, refRep, dayLen, days)
	refText := RenderBreakdown(refRep)

	for epoch := 0; epoch < rounds; epoch++ {
		path := filepath.Join(t.TempDir(), "epoch.ckpt")
		crashed := newSess(t)
		feed(t, crashed, 0, epoch)
		if err := crashed.WriteCheckpoint(path); err != nil {
			t.Fatalf("epoch %d: checkpoint: %v", epoch, err)
		}
		// The crash: the original session is abandoned unread.
		resumed, err := an.ResumeSession(sc, path)
		if err != nil {
			t.Fatalf("epoch %d: resume: %v", epoch, err)
		}
		if got, was := resumed.Stats(), crashed.Stats(); !reflect.DeepEqual(got, was) {
			t.Errorf("epoch %d: resumed stats %+v, checkpointed %+v", epoch, got, was)
		}
		feed(t, resumed, epoch, rounds)
		res, rep := resumed.Drain()
		if !reflect.DeepEqual(refRep.Outcomes, rep.Outcomes) {
			t.Errorf("epoch %d: resumed outcomes diverged from the uninterrupted session", epoch)
		}
		checkDrained(t, want.Result, res, false)
		checkSameReport(t, want.Report, rep, dayLen, days)
		if got := RenderBreakdown(rep); got != refText {
			t.Errorf("epoch %d: rendered breakdown diverged:\n got: %s\nwant: %s", epoch, got, refText)
		}
	}
}

// TestResumeUnderNewDailyBins resumes a checkpoint written without daily
// bins under a config that has them and a later window start. The aggregate
// is a fold of the outcomes, so the resumed session rebuilds it under the
// resuming config: its drain must equal an uninterrupted session under that
// config in every aggregate read, daily composition included, rather than
// keep the writer's start and bin geometry and merge later windows into it.
func TestResumeUnderNewDailyBins(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(8))
	if err != nil {
		t.Fatal(err)
	}
	logs, sink, end := camp.Logs, camp.Sink, int64(camp.Duration)
	day := int64(sim.Day)
	days := int((end + day - 1) / day)
	sc := SessionConfig{Horizon: referenceMaxPacketSpread(logs)}
	writer, err := NewAnalyzer(AnalyzerOptions{}, WithSink(sink), WithWindow(0, end))
	if err != nil {
		t.Fatal(err)
	}
	resumer, err := NewAnalyzer(AnalyzerOptions{}, WithSink(sink), WithWindow(day/2, end), WithDailyBins(day, days))
	if err != nil {
		t.Fatal(err)
	}
	nodes := logs.Nodes()
	const rounds = 4
	feed := func(sess *Session, from, to int) {
		for r := from; r < to; r++ {
			for _, n := range nodes {
				evs := logs.Log(n).Events()
				if err := sess.Append(n, evs[len(evs)*r/rounds:len(evs)*(r+1)/rounds]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Advance(end); err != nil {
				t.Fatal(err)
			}
		}
	}
	newSess := func(an *Analyzer) *Session {
		sess, err := an.NewSession(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			sess.Register(n)
		}
		return sess
	}

	ref := newSess(resumer)
	feed(ref, 0, rounds)
	_, want := ref.Drain()

	crashed := newSess(writer)
	feed(crashed, 0, rounds/2)
	if crashed.Stats().FinalizedPackets == 0 {
		t.Fatal("nothing finalized before the checkpoint: the test would prove nothing")
	}
	path := filepath.Join(t.TempDir(), "half.ckpt")
	if err := crashed.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := resumer.ResumeSession(sc, path)
	if err != nil {
		t.Fatal(err)
	}
	feed(resumed, rounds/2, rounds)
	_, got := resumed.Drain()
	checkSameReport(t, want, got, day, days)
}

// TestSnapshotSessionFromMappedCollection closes the loop between the two
// halves of this file: fragments served out of a mapped snapshot (the
// retriever re-reading its archive) must drive a session to the same drained
// report as fragments served from the in-memory collection.
func TestSnapshotSessionFromMappedCollection(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	horizon := referenceMaxPacketSpread(logs)
	an, err := NewAnalyzer(AnalyzerOptions{}, WithSink(sink), WithWindow(0, end))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(snapshotPath(t, logs))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	mapped := snap.Collection()

	sess, err := an.NewSession(sc(horizon))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range mapped.Nodes() {
		sess.Register(n)
	}
	for _, n := range mapped.Nodes() {
		if err := sess.Append(n, mapped.Log(n).Events()); err != nil {
			t.Fatal(err)
		}
	}
	_, rep := sess.Drain()
	want := an.Analyze(logs)
	if !reflect.DeepEqual(want.Report.Outcomes, rep.Outcomes) {
		t.Error("session fed from the mapped collection diverged from batch")
	}
}

func sc(horizon int64) SessionConfig { return SessionConfig{Horizon: horizon} }

// TestSnapshotOutOfCoreEquivalence pins the out-of-core path: windowed
// reconstruction that reads each window's rows from the file
// (Analyzer.AnalyzeSnapshot) must be byte-identical to batch analysis of the
// same collection — across window sizes small enough to force many
// residency windows, with and without an explicit horizon, with flows
// discarded, and through the in-memory fallback for logs the window planner
// refuses. Runs under -race and under the refill_nommap tag like the rest of
// this file, so reads from the mapped file and copies from the portable
// buffer carry the same guarantee.
func TestSnapshotOutOfCoreEquivalence(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	an, err := NewAnalyzer(AnalyzerOptions{},
		WithSink(sink), WithWindow(0, end), WithDailyBins(dayLen, days))
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	if want.Report.Total() == 0 || len(want.Report.Outages) == 0 {
		t.Fatal("degenerate campaign: need losses and outages to prove anything")
	}

	snap, err := OpenSnapshot(snapshotPath(t, logs))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	horizon := referenceMaxPacketSpread(logs)
	retain := SessionConfig{RetainFlows: true}
	cases := []struct {
		name string
		opts SnapshotOptions
	}{
		{"default-window", SnapshotOptions{SessionConfig: retain}},
		{"tiny-windows", SnapshotOptions{WindowRows: 64, SessionConfig: retain}},
		{"odd-windows", SnapshotOptions{WindowRows: 257, SessionConfig: retain}},
		{"explicit-horizon", SnapshotOptions{WindowRows: 311, SessionConfig: SessionConfig{Horizon: horizon, RetainFlows: true}}},
	}
	checkFlowTotals(t, want.Result)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := an.AnalyzeSnapshot(snap, tc.opts)
			checkDrained(t, want.Result, got.Result, true)
			if !reflect.DeepEqual(want.Result.Operational, got.Result.Operational) {
				t.Error("out-of-core operational events diverged from batch")
			}
			checkSameReport(t, want.Report, got.Report, dayLen, days)
		})
	}
	t.Run("discard-flows", func(t *testing.T) {
		got := an.AnalyzeSnapshot(snap, SnapshotOptions{WindowRows: 128})
		checkDrained(t, want.Result, got.Result, false)
		if !reflect.DeepEqual(want.Result.Operational, got.Result.Operational) {
			t.Error("out-of-core operational events diverged from batch")
		}
		checkSameReport(t, want.Report, got.Report, dayLen, days)
	})
	t.Run("parent-format", func(t *testing.T) {
		// A file written before snapshots recorded their spread: the horizon
		// is scanned instead, and the output is the same.
		old, err := OpenSnapshot(parentFormatSnapshot(t, logs))
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close()
		if spread, ok := old.RecordedSpread(); ok {
			t.Fatalf("a file without the spread section reports spread %d", spread)
		}
		got := an.AnalyzeSnapshot(old, SnapshotOptions{WindowRows: 257, SessionConfig: retain})
		if serializeFlows(got.Result.Flows) != serializeFlows(want.Result.Flows) {
			t.Error("out-of-core flows diverged from batch")
		}
		if got.Result.InferredEvents != want.Result.InferredEvents || got.Result.Anomalies != want.Result.Anomalies {
			t.Errorf("out-of-core counters %d/%d, batch %d/%d", got.Result.InferredEvents, got.Result.Anomalies,
				want.Result.InferredEvents, want.Result.Anomalies)
		}
		if !reflect.DeepEqual(want.Result.Operational, got.Result.Operational) {
			t.Error("out-of-core operational events diverged from batch")
		}
		checkSameReport(t, want.Report, got.Report, dayLen, days)
		if g, w := RenderBreakdown(got.Report), RenderBreakdown(want.Report); g != w {
			t.Errorf("report diverged from batch:\n%s\nwant:\n%s", g, w)
		}
	})
	t.Run("hostile-timestamps", testOutOfCoreHostileTimestamps)
	t.Run("unordered-fallback", testOutOfCoreUnorderedFallback)
	t.Run("trailing-open-outage", func(t *testing.T) { testOutOfCoreTrailingOutage(t, logs, sink, end) })
}

// parentFormatSnapshot writes logs under t.TempDir as a snapshot without the
// recorded spread: the collection's sections alone, as files written before
// the section existed hold.
func parentFormatSnapshot(t *testing.T, logs *Collection) string {
	t.Helper()
	var buf bytes.Buffer
	w := snapfile.NewWriter(&buf)
	if err := event.AppendCollectionSections(w, 0, logs); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parent.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMaxPacketSpreadMatchesReference: the run-folding scan and the spread a
// snapshot records must both equal the per-row reference scan — on a
// simulated campaign, an empty collection, one packet logged in several runs
// at one node, negative clocks, and a spread that saturates at MaxInt64.
func TestMaxPacketSpreadMatchesReference(t *testing.T) {
	ev := func(n NodeID, typ event.Type, origin NodeID, seq uint32, at int64) Event {
		return Event{Node: n, Type: typ, Sender: n, Packet: PacketID{Origin: origin, Seq: seq}, Time: at}
	}
	interleaved := NewCollection() // packet 3:1 in three runs at node 3, the first out of time order
	for _, e := range []Event{
		ev(3, Gen, 3, 1, 20), ev(3, Trans, 3, 1, 15), ev(3, Gen, 3, 2, 21),
		ev(3, Trans, 3, 1, 60), {Node: 3, Type: ServerDown, Time: 61}, ev(3, Trans, 3, 1, 70),
		ev(3, Trans, 3, 2, 22), ev(1, Recv, 3, 2, 30),
	} {
		interleaved.Add(e)
	}
	negative := NewCollection()
	for i := int64(0); i < 40; i++ {
		origin := NodeID(2 + i%3)
		t0 := -10_000 + 97*i
		negative.Add(ev(origin, Gen, origin, uint32(i), t0))
		negative.Add(ev(1, Recv, origin, uint32(i), t0+i%7))
	}
	negative.Add(ev(5, Trans, 5, 99, -50))
	negative.Add(ev(1, Recv, 5, 99, 40))
	saturated := NewCollection() // TestMaxPacketSpreadSaturates' collection
	for _, e := range []Event{
		ev(1, Trans, 1, 1, 10), ev(2, Recv, 1, 1, 25),
		ev(4, Trans, 4, 1, math.MinInt64+10), ev(5, Recv, 4, 1, math.MaxInt64-10),
	} {
		saturated.Add(e)
	}
	for _, tc := range []struct {
		name string
		logs *Collection
		want int64 // -1: whatever the reference says
	}{
		{"campaign", equivCampaign(t).Res.Logs, -1},
		{"empty", NewCollection(), 0},
		{"interleaved-runs", interleaved, 55},
		{"negative-clocks", negative, 90},
		{"saturated", saturated, math.MaxInt64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceMaxPacketSpread(tc.logs)
			if tc.want >= 0 && want != tc.want {
				t.Fatalf("reference spread %d, the case was built for %d", want, tc.want)
			}
			if got := event.MaxPacketSpread(tc.logs); got != want {
				t.Errorf("MaxPacketSpread = %d, reference %d", got, want)
			}
			snap, err := OpenSnapshot(snapshotPath(t, tc.logs))
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if got, ok := snap.RecordedSpread(); !ok || got != want {
				t.Errorf("recorded spread %d, %v; reference %d", got, ok, want)
			}
		})
	}
}

// testOutOfCoreTrailingOutage drops the campaign's last server-up, so its
// last outage never closes and the campaign end decides how far it reaches:
// nowhere under a zero end, half way under an end inside the outage. Sink
// losses past the end are outage losses if a server-up comes later and not if
// none does, so the session must not classify them before the drain.
func testOutOfCoreTrailingOutage(t *testing.T, full *Collection, sink NodeID, duration int64) {
	down, up := int64(0), int64(-1)
	for _, e := range event.OperationalEvents(full) {
		switch e.Type {
		case ServerDown:
			down = e.Time
		case ServerUp:
			up = e.Time
		}
	}
	if up <= down {
		t.Fatal("degenerate campaign: its last outage does not close")
	}
	logs := NewCollection()
	for _, n := range full.Nodes() {
		for _, e := range full.Log(n).Events() {
			if e.Type != ServerUp || e.Time != up {
				logs.Add(e)
			}
		}
	}
	snap, err := OpenSnapshot(snapshotPath(t, logs))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	outageLosses := func(rep *Report) (n int) {
		for _, o := range rep.Outcomes {
			if o.Cause == ServerOutage {
				n++
			}
		}
		return n
	}
	var counts []int
	for _, end := range []int64{duration, 0, down + (up-down)/2} {
		an, err := NewAnalyzer(AnalyzerOptions{}, WithSink(sink), WithWindow(0, end))
		if err != nil {
			t.Fatal(err)
		}
		want := an.Analyze(logs)
		counts = append(counts, outageLosses(want.Report))
		got := an.AnalyzeSnapshot(snap, SnapshotOptions{WindowRows: 257, SessionConfig: SessionConfig{RetainFlows: true}})
		if serializeFlows(got.Result.Flows) != serializeFlows(want.Result.Flows) {
			t.Errorf("end %d: out-of-core flows diverged from batch", end)
		}
		if !reflect.DeepEqual(want.Report.Outcomes, got.Report.Outcomes) {
			t.Errorf("end %d: %d outage losses out of core, batch %d", end, outageLosses(got.Report), outageLosses(want.Report))
		}
		if !reflect.DeepEqual(want.Report.Outages, got.Report.Outages) {
			t.Errorf("end %d: outages %v, batch %v", end, got.Report.Outages, want.Report.Outages)
		}
	}
	if !(counts[0] > counts[2] && counts[2] > counts[1]) {
		t.Errorf("outage losses under ends duration/mid/zero = %d/%d/%d: the end does not decide the trailing outage, so nothing is proved", counts[0], counts[2], counts[1])
	}
}

// testOutOfCoreUnorderedFallback: a snapshot with one log out of time order
// cannot be cut into windows, so AnalyzeSnapshot analyzes it in memory. The
// report and the inferred-event and anomaly counters must still equal
// batch, and flows must follow RetainFlows. A gen logged by a node that is
// not the packet's origin adds an anomaly.
func testOutOfCoreUnorderedFallback(t *testing.T) {
	logs := hostileTimestampLogs()
	// A late-logged packet stamped before the rest of node 6's log.
	logs.Add(Event{Node: 6, Type: Gen, Sender: 6, Packet: PacketID{Origin: 6, Seq: 999}, Time: 5})
	logs.Add(Event{Node: 1, Type: Gen, Sender: 5, Packet: PacketID{Origin: 5, Seq: 998}, Time: 1 << 30})
	an, err := NewAnalyzer(AnalyzerOptions{Sink: 1, End: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	checkFlowTotals(t, want.Result)
	if want.Result.Anomalies == 0 {
		t.Fatal("no anomaly in the fallback's logs; its anomaly count is not checked")
	}
	snap, err := OpenSnapshot(snapshotPath(t, logs))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := event.PlanWindows(snap.Collection(), 64); err == nil {
		t.Fatal("the window planner accepted a log out of time order; the fallback is not exercised")
	}
	for _, retain := range []bool{true, false} {
		got := an.AnalyzeSnapshot(snap, SnapshotOptions{WindowRows: 64, SessionConfig: SessionConfig{RetainFlows: retain}})
		if g, w := RenderBreakdown(got.Report), RenderBreakdown(want.Report); g != w {
			t.Errorf("RetainFlows=%v: report diverged from batch:\n%s\nwant:\n%s", retain, g, w)
		}
		if !reflect.DeepEqual(want.Report.Outcomes, got.Report.Outcomes) {
			t.Errorf("RetainFlows=%v: outcomes diverged from batch", retain)
		}
		switch {
		case retain && serializeFlows(got.Result.Flows) != serializeFlows(want.Result.Flows):
			t.Errorf("RetainFlows: %d flows diverged from batch's %d", len(got.Result.Flows), len(want.Result.Flows))
		case !retain && got.Result.Flows != nil:
			t.Errorf("retained %d flows without RetainFlows", len(got.Result.Flows))
		}
		if got.Result.InferredEvents != want.Result.InferredEvents || got.Result.Anomalies != want.Result.Anomalies {
			t.Errorf("RetainFlows=%v: counters %d/%d, batch %d/%d", retain, got.Result.InferredEvents,
				got.Result.Anomalies, want.Result.InferredEvents, want.Result.Anomalies)
		}
	}
}

// hostileTimestampLogs is 200 ordinary packets plus one packet, 4:1, whose
// two rows are stamped math.MinInt64+10 and math.MaxInt64-10: a timestamp
// span wider than int64 can hold, in logs that are still time-ordered.
func hostileTimestampLogs() *Collection {
	c := NewCollection()
	hostile := PacketID{Origin: 4, Seq: 1}
	c.Add(Event{Node: 4, Type: Trans, Sender: 4, Receiver: 5, Packet: hostile, Time: math.MinInt64 + 10})
	for i := 0; i < 200; i++ {
		origin := NodeID(4 + i%3)
		pkt := PacketID{Origin: origin, Seq: uint32(i + 2)}
		t0 := int64(i) * 100
		c.Add(Event{Node: origin, Type: Gen, Sender: origin, Packet: pkt, Time: t0})
		c.Add(Event{Node: origin, Type: Trans, Sender: origin, Receiver: 1, Packet: pkt, Time: t0 + 1})
		c.Add(Event{Node: 1, Type: Recv, Sender: origin, Receiver: 1, Packet: pkt, Time: t0 + 2})
	}
	c.Add(Event{Node: 5, Type: Recv, Sender: 4, Receiver: 5, Packet: hostile, Time: math.MaxInt64 - 10})
	return c
}

// testOutOfCoreHostileTimestamps: the windowed path must neither spin (the
// window planner's bisection used to wrap on a time domain wider than
// math.MaxInt64) nor split packet 4:1 across two windows (its derived horizon
// used to wrap to 0, retiring it once in window 0 and again at the end: 202
// flows). It runs under a deadline so the first failure is a failure, not a
// hang.
func testOutOfCoreHostileTimestamps(t *testing.T) {
	logs := hostileTimestampLogs()
	an, err := NewAnalyzer(AnalyzerOptions{Sink: 1, End: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	if len(want.Result.Flows) != 201 {
		t.Fatalf("batch reconstructed %d flows, want 201", len(want.Result.Flows))
	}
	snap, err := OpenSnapshot(snapshotPath(t, logs))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, opts := range []SnapshotOptions{
		{WindowRows: 64, SessionConfig: SessionConfig{RetainFlows: true}},
		{WindowRows: 64, SessionConfig: SessionConfig{Horizon: math.MaxInt64, RetainFlows: true}},
	} {
		done := make(chan *Output, 1)
		go func() { done <- an.AnalyzeSnapshot(snap, opts) }()
		select {
		case got := <-done:
			if g, w := serializeFlows(got.Result.Flows), serializeFlows(want.Result.Flows); g != w {
				t.Errorf("%+v: %d out-of-core flows diverged from batch's %d", opts, len(got.Result.Flows), len(want.Result.Flows))
			}
			if g, w := RenderBreakdown(got.Report), RenderBreakdown(want.Report); g != w {
				t.Errorf("%+v: report diverged from batch:\n%s\nwant:\n%s", opts, g, w)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%+v: AnalyzeSnapshot still running after 20 s", opts)
		}
	}
}
