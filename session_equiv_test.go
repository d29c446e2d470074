package refill

// Equivalence harness for the resident ingest session: a session fed a
// campaign's per-node logs as fragments — whatever the fragment interleave
// and watermark schedule — must, once drained, produce a Result and Report
// byte-identical to batch Analyze over the same collection. Three named
// schedules (in-order rounds, seeded random interleave, adversarial
// single-digit fragments with an advance after every append) and a
// time-cut schedule with a punctuated silent node pin the property
// deterministically; FuzzSessionEquivalence searches schedule space beyond
// them. Every advance of those schedules also checks the live Snapshot
// (liveReads). A soak test pins the memory story: retained pending rows stay
// bounded by the in-flight window across many advances, rather than
// accumulating with total ingest.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/sim"
)

// liveRead is one live Snapshot together with what it read when it was
// taken.
type liveRead struct {
	rep       *Report
	outcomes  []Outcome
	src, pos  []diagnosis.Point
	breakdown map[Cause]int
}

func readLive(rep *Report) liveRead {
	return liveRead{rep: rep, outcomes: append([]Outcome(nil), rep.Outcomes...),
		src: rep.SourcePoints(), pos: rep.PositionPoints(), breakdown: rep.Breakdown()}
}

// liveReads checks a session's live reports as the session advances. Each
// Snapshot must list its outcomes in strict packet-ID order — the session
// merges windows into that order and no longer sorts at read time. It keeps
// the first non-empty read and the latest one and requires both to read the
// same at every later check and after Drain: a report must not share the
// backing arrays later windows merge into.
type liveReads struct {
	first, last *liveRead
}

func (l *liveReads) check(t *testing.T, sess *Session) {
	t.Helper()
	rep := sess.Snapshot()
	for i := 1; i < len(rep.Outcomes); i++ {
		if !rep.Outcomes[i-1].Packet.Less(rep.Outcomes[i].Packet) {
			t.Fatalf("live outcomes %d and %d out of packet order: %v, %v", i-1, i, rep.Outcomes[i-1].Packet, rep.Outcomes[i].Packet)
		}
	}
	got := readLive(rep)
	l.unchanged(t)
	if l.first == nil && rep.Total() > 0 {
		l.first = &got
	}
	l.last = &got
}

// unchanged rereads the kept reports.
func (l *liveReads) unchanged(t *testing.T) {
	t.Helper()
	for _, r := range []*liveRead{l.first, l.last} {
		if r == nil {
			continue
		}
		if now := readLive(r.rep); !reflect.DeepEqual(now, *r) {
			t.Fatalf("a live report of %d outcomes changed after later windows folded in", len(r.outcomes))
		}
	}
}

// referenceMaxPacketSpread computes the campaign's maximum within-packet
// timestamp spread — the Horizon a deployment would derive from its
// clock-skew and packet-lifetime bounds, here measured exactly from the logs,
// saturated at math.MaxInt64. It is the oracle for event.MaxPacketSpread and
// for the spread a snapshot records: one map update per row, no run folding.
func referenceMaxPacketSpread(logs *Collection) int64 {
	type span struct{ min, max int64 }
	spans := make(map[PacketID]span)
	for _, n := range logs.Nodes() {
		for _, e := range logs.Log(n).Events() {
			if !e.Type.PacketScoped() {
				continue
			}
			s, ok := spans[e.Packet]
			if !ok {
				s = span{min: e.Time, max: e.Time}
			}
			if e.Time < s.min {
				s.min = e.Time
			}
			if e.Time > s.max {
				s.max = e.Time
			}
			spans[e.Packet] = s
		}
	}
	horizon := int64(0)
	//refill:allow maprange — max reduction; order-independent
	for _, s := range spans {
		d := s.max - s.min
		if d < 0 { // wrapped: the true spread exceeds MaxInt64
			d = math.MaxInt64
		}
		horizon = max(horizon, d)
	}
	return horizon
}

// fragmentLogs splits each node's log into per-node fragment queues of at
// most chunk events, preserving log order within each node.
func fragmentLogs(logs *Collection, chunk int) map[NodeID][][]Event {
	out := make(map[NodeID][][]Event)
	for _, n := range logs.Nodes() {
		evs := logs.Log(n).Events()
		for lo := 0; lo < len(evs); lo += chunk {
			hi := lo + chunk
			if hi > len(evs) {
				hi = len(evs)
			}
			out[n] = append(out[n], evs[lo:hi])
		}
	}
	return out
}

// sessionFor opens a session on an analyzer configured like the batch
// reference, with every campaign node registered so aggressive watermark
// advances cannot finalize packets whose rows are still unseen. retain sets
// RetainFlows.
func sessionFor(t *testing.T, an *Analyzer, logs *Collection, horizon int64, retain bool) *Session {
	t.Helper()
	sess, err := an.NewSession(SessionConfig{Horizon: horizon, RetainFlows: retain})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range logs.Nodes() {
		sess.Register(n)
	}
	return sess
}

// bothRetentions runs a schedule once with RetainFlows on and once with it
// off, the service default, where no window keeps its flows.
func bothRetentions(t *testing.T, run func(t *testing.T, retain bool)) {
	t.Run("retain-flows", func(t *testing.T) { run(t, true) })
	t.Run("discard-flows", func(t *testing.T) { run(t, false) })
}

// checkDrained requires a drained Result to carry exactly the batch flows
// under RetainFlows and none without it, and the batch Result's
// inferred-event and anomaly counters either way.
func checkDrained(t *testing.T, want, got *engine.Result, retain bool) {
	t.Helper()
	if got.InferredEvents != want.InferredEvents || got.Anomalies != want.Anomalies {
		t.Errorf("drained counters = %d inferred / %d anomalies, batch has %d / %d (RetainFlows %v)",
			got.InferredEvents, got.Anomalies, want.InferredEvents, want.Anomalies, retain)
	}
	if !retain {
		if got.Flows != nil {
			t.Errorf("%d flows drained without RetainFlows", len(got.Flows))
		}
		return
	}
	if !reflect.DeepEqual(want.Flows, got.Flows) {
		t.Error("Flows diverged from batch Analyze")
	}
}

// checkFlowTotals requires res's counters to be the sums of InferredCount
// and len(Anomalies) over its flows, and the inferred sum to be nonzero so
// the counter checks built on res prove something.
func checkFlowTotals(t *testing.T, res *engine.Result) {
	t.Helper()
	inferred, anomalies := 0, 0
	for _, f := range res.Flows {
		inferred += f.InferredCount()
		anomalies += len(f.Anomalies)
	}
	if res.InferredEvents != inferred || res.Anomalies != anomalies || inferred == 0 {
		t.Fatalf("Result counters = %d inferred / %d anomalies, its flows sum to %d / %d (inferred must be nonzero)",
			res.InferredEvents, res.Anomalies, inferred, anomalies)
	}
}

func TestSessionEquivalence(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	horizon := referenceMaxPacketSpread(logs)

	an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end})
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	if want.Report.Total() == 0 || len(want.Report.Outages) == 0 {
		t.Fatal("degenerate campaign: sessions need losses and outages to prove anything")
	}
	checkFlowTotals(t, want.Result)

	check := func(t *testing.T, sess *Session, retain bool) {
		t.Helper()
		res, rep := sess.Drain()
		if !reflect.DeepEqual(want.Result.Operational, res.Operational) {
			t.Error("Operational diverged from batch Analyze")
		}
		checkDrained(t, want.Result, res, retain)
		if st := sess.Stats(); st.InferredEvents != res.InferredEvents || st.Anomalies != res.Anomalies {
			t.Errorf("Stats counters %d/%d, drained Result %d/%d", st.InferredEvents, st.Anomalies, res.InferredEvents, res.Anomalies)
		}
		checkSameReport(t, want.Report, rep, dayLen, days)
	}

	t.Run("in-order", func(t *testing.T) {
		bothRetentions(t, func(t *testing.T, retain bool) {
			// Each node's log arrives in a few in-order rounds; the watermark
			// chases the campaign end after every round.
			sess := sessionFor(t, an, logs, horizon, retain)
			var live liveReads
			const rounds = 5
			nodes := logs.Nodes()
			for r := 0; r < rounds; r++ {
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
				live.check(t, sess)
			}
			if sess.Stats().FinalizedPackets == 0 {
				t.Error("no packet finalized before drain; schedule never exercised retirement")
			}
			check(t, sess, retain)
			live.unchanged(t)
		})
	})

	t.Run("shuffled", func(t *testing.T) {
		bothRetentions(t, func(t *testing.T, retain bool) {
			// Fragments drain from per-node queues in a seeded random global
			// interleave (per-node order intact — that is the log contract),
			// with random watermark advances mixed in.
			sess := sessionFor(t, an, logs, horizon, retain)
			var live liveReads
			frags := fragmentLogs(logs, 2048)
			var order []NodeID
			//refill:allow maprange — queue keys; the shuffle below randomizes deliberately
			for n, q := range frags {
				for range q {
					order = append(order, n)
				}
			}
			rng := rand.New(rand.NewSource(42))
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			next := make(map[NodeID]int)
			for i, n := range order {
				if err := sess.Append(n, frags[n][next[n]]); err != nil {
					t.Fatal(err)
				}
				next[n]++
				if i%7 == 0 {
					if _, err := sess.Advance(rng.Int63n(2 * end)); err != nil {
						t.Fatal(err)
					}
					live.check(t, sess)
				}
			}
			check(t, sess, retain)
			live.unchanged(t)
		})
	})

	t.Run("adversarial", func(t *testing.T) {
		bothRetentions(t, func(t *testing.T, retain bool) {
			// Tiny fragments, nodes in descending order, and a maximal advance
			// after every single append — the watermark machinery gets no slack
			// anywhere. Snapshots are interleaved to prove reads never disturb
			// the accumulating state.
			sess := sessionFor(t, an, logs, horizon, retain)
			var live liveReads
			frags := fragmentLogs(logs, 601)
			nodes := logs.Nodes()
			for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
			for round, appended := 0, true; appended; round++ {
				appended = false
				for _, n := range nodes {
					if round >= len(frags[n]) {
						continue
					}
					appended = true
					if err := sess.Append(n, frags[n][round]); err != nil {
						t.Fatal(err)
					}
					if _, err := sess.Advance(end + 1); err != nil {
						t.Fatal(err)
					}
					live.check(t, sess)
				}
				if rep := sess.Snapshot(); rep.Total() != sess.Stats().FinalizedPackets {
					t.Fatal("snapshot total disagrees with finalized count")
				}
			}
			check(t, sess, retain)
			live.unchanged(t)
		})
	})
}

// TestSessionSnapshotConsistency pins the live view: a snapshot taken
// mid-campaign covers exactly the finalized packets, agrees with its own
// reads, and draining afterwards still matches batch.
func TestSessionSnapshotConsistency(t *testing.T) {
	c := equivCampaign(t)
	logs, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	horizon := referenceMaxPacketSpread(logs)
	an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end})
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	bothRetentions(t, func(t *testing.T, retain bool) {
		sess := sessionFor(t, an, logs, horizon, retain)
		nodes := logs.Nodes()
		const rounds = 4
		for r := 0; r < rounds; r++ {
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
			rep := sess.Snapshot()
			if rep.Total() != sess.Stats().FinalizedPackets {
				t.Fatalf("round %d: snapshot total %d != finalized %d", r, rep.Total(), sess.Stats().FinalizedPackets)
			}
			losses := 0
			//refill:allow maprange — sum reduction; order-independent
			for _, n := range rep.Breakdown() {
				losses += n
			}
			if losses != rep.Total() {
				t.Fatalf("round %d: breakdown sums to %d of %d outcomes", r, losses, rep.Total())
			}
		}
		res, rep := sess.Drain()
		if !reflect.DeepEqual(want.Report.Outcomes, rep.Outcomes) {
			t.Error("drained outcomes diverged after interleaved snapshots")
		}
		checkDrained(t, want.Result, res, retain)
	})
}

// TestSessionBoundedRetention is the soak test: a session fed an unbounded
// packet stream, advanced once per window, must hold pending rows bounded by
// the in-flight window population — not by total ingest.
func TestSessionBoundedRetention(t *testing.T) {
	an, err := NewAnalyzer(AnalyzerOptions{Sink: 1, End: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := an.NewSession(SessionConfig{Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	const (
		windows      = 16
		perWindow    = 25
		windowLength = int64(1000)
	)
	origins := []NodeID{2, 3, 4}
	maxPending, totalRows := 0, 0
	for w := 0; w < windows; w++ {
		base := int64(w) * windowLength
		for p := 0; p < perWindow; p++ {
			o := origins[p%len(origins)]
			pkt := PacketID{Origin: o, Seq: uint32(w*perWindow + p)}
			tick := base + int64(p)*20
			rows := []Event{
				{Node: o, Type: Gen, Sender: o, Packet: pkt, Time: tick},
				{Node: o, Type: Trans, Sender: o, Receiver: 1, Packet: pkt, Time: tick + 2},
				{Node: 1, Type: Recv, Sender: o, Receiver: 1, Packet: pkt, Time: tick + 3},
				{Node: o, Type: AckRecvd, Sender: o, Receiver: 1, Packet: pkt, Time: tick + 4},
				{Node: Server, Type: ServerRecv, Sender: 1, Receiver: Server, Packet: pkt, Time: tick + 5},
			}
			for _, e := range rows {
				if err := sess.Append(e.Node, []Event{e}); err != nil {
					t.Fatal(err)
				}
				totalRows++
			}
		}
		if _, err := sess.Advance(base + windowLength); err != nil {
			t.Fatal(err)
		}
		if p := sess.Stats().PendingRows; p > maxPending {
			maxPending = p
		}
	}
	st := sess.Stats()
	if st.Epoch < 10 {
		t.Fatalf("only %d advances moved the session; the soak needs >= 10 windows", st.Epoch)
	}
	// Everything except at most the last window's tail (held back by the
	// horizon) must have been evicted at every step: the high-water mark
	// may cover about two windows of rows, never the whole stream.
	bound := 3 * perWindow * 5
	if maxPending > bound {
		t.Errorf("pending rows peaked at %d; bound for two in-flight windows is %d (total ingested %d)",
			maxPending, bound, totalRows)
	}
	if maxPending >= totalRows {
		t.Errorf("retention never evicted: peak %d of %d total rows", maxPending, totalRows)
	}
	_, rep := sess.Drain()
	if rep.Total() != windows*perWindow {
		t.Errorf("drained %d packets, want %d", rep.Total(), windows*perWindow)
	}
	if rep.LossCount() != 0 {
		t.Errorf("lossless soak stream reported %d losses", rep.LossCount())
	}
}

// TestSessionPunctuatedSilence: one node is silent for several rounds — its
// rows there are lost — while a time-cut feeder appends every node's rows up
// to each round's cut and punctuates every node at that cut. The session
// must drain byte-identical to batch over the same lossy logs. Punctuation
// is what keeps the silent node from pinning the watermark: after every
// advance, pending rows stay at or below the level of the same schedule over
// the logs without the silence, while without punctuation they grow.
func TestSessionPunctuatedSilence(t *testing.T) {
	c := equivCampaign(t)
	full, sink, end := c.Res.Logs, c.Res.Sink, int64(c.Res.Duration)
	dayLen := int64(sim.Day)
	days := int((end + dayLen - 1) / dayLen)
	horizon := referenceMaxPacketSpread(full)
	an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, silentFrom, silentTo = 16, 4, 10 // quiet logs nothing in rounds [silentFrom, silentTo)
	cut := func(r int) int64 {
		if r == rounds-1 {
			return math.MaxInt64 // local clocks can run past the campaign end
		}
		return end * int64(r+1) / rounds
	}
	nodes := full.Nodes()
	quiet := nodes[len(nodes)/2]
	silent := NewCollection()
	for _, n := range nodes {
		evs := full.Log(n).Events()
		for j, e := range evs {
			if j > 0 && e.Time < evs[j-1].Time {
				t.Fatalf("node %v's log is not time-ordered; a time-cut feeder cannot punctuate it", n)
			}
			if n == quiet && e.Time > cut(silentFrom-1) && e.Time <= cut(silentTo-1) {
				continue
			}
			silent.Add(e)
		}
	}
	if silent.TotalEvents() == full.TotalEvents() {
		t.Fatal("the silence removed no rows")
	}

	// feed runs the time-cut schedule and returns the session with the
	// pending rows after each advance.
	feed := func(t *testing.T, logs *Collection, punctuate, retain bool) (*Session, []int) {
		sess := sessionFor(t, an, full, horizon, retain)
		var live liveReads
		var pending []int
		next := make(map[NodeID]int)
		perNode := make(map[NodeID][]Event)
		for _, n := range nodes {
			perNode[n] = logs.Log(n).Events()
		}
		for r := 0; r < rounds; r++ {
			for _, n := range nodes {
				evs := perNode[n]
				lo := next[n]
				for next[n] < len(evs) && evs[next[n]].Time <= cut(r) {
					next[n]++
				}
				if err := sess.Append(n, evs[lo:next[n]]); err != nil {
					t.Fatal(err)
				}
				if punctuate {
					sess.Punctuate(n, cut(r))
				}
			}
			if _, err := sess.Advance(cut(r)); err != nil {
				t.Fatal(err)
			}
			live.check(t, sess)
			pending = append(pending, sess.Stats().PendingRows)
		}
		return sess, pending
	}

	_, level := feed(t, full, true, true)
	_, pinned := feed(t, silent, false, true)
	if r := silentTo - 1; pinned[r] <= level[r] {
		t.Errorf("round %d: unpunctuated silence holds %d pending rows, no more than the %d without it; the schedule never pins the watermark", r, pinned[r], level[r])
	}

	want := an.Analyze(silent)
	bothRetentions(t, func(t *testing.T, retain bool) {
		sess, got := feed(t, silent, true, retain)
		for r := range got {
			if got[r] > level[r] {
				t.Errorf("round %d: %d pending rows with a punctuated silence, %d without the silence", r, got[r], level[r])
			}
		}
		res, rep := sess.Drain()
		if !reflect.DeepEqual(want.Result.Operational, res.Operational) {
			t.Error("Operational diverged from batch Analyze")
		}
		checkDrained(t, want.Result, res, retain)
		checkSameReport(t, want.Report, rep, dayLen, days)
	})
}

// FuzzSessionEquivalence drives a session with a fuzz-chosen fragment,
// punctuation and watermark schedule over a tiny campaign and requires the
// drained report to match batch Analyze exactly. Bytes alternate between a
// node op and "advance the watermark to a byte-scaled time". A node op's low
// bit picks between appending the node's next fragment and punctuating the
// node at its current cut — the time of its next unfed row, or
// math.MaxInt64 once its log is fed — which is exactly what it has left.
// Each schedule runs twice, without RetainFlows (the service default) and
// with it, where the drained flows must match batch too.
func FuzzSessionEquivalence(f *testing.F) {
	camp, err := RunCampaign(TinyCampaign(3))
	if err != nil {
		f.Fatal(err)
	}
	logs, sink, end := camp.Logs, camp.Sink, int64(camp.Duration)
	horizon := referenceMaxPacketSpread(logs)
	an, err := NewAnalyzer(AnalyzerOptions{Sink: sink, End: end})
	if err != nil {
		f.Fatal(err)
	}
	want := an.Analyze(logs)
	nodes := logs.Nodes()
	for _, n := range nodes {
		evs := logs.Log(n).Events()
		for j := 1; j < len(evs); j++ {
			if evs[j].Time < evs[j-1].Time {
				f.Fatalf("node %v's log is not time-ordered; punctuating at its next row would lie", n)
			}
		}
	}

	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x80, 0x40})
	f.Add([]byte("watermarks"))
	f.Add([]byte{0, 0xFF, 1, 0xFF, 3, 0xFF, 5, 0xFF, 7, 0xFF, 9, 0xFF})
	f.Fuzz(func(t *testing.T, program []byte) {
		for _, retain := range []bool{false, true} {
			sess, err := an.NewSession(SessionConfig{Horizon: horizon, RetainFlows: retain})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				sess.Register(n)
			}
			frags := fragmentLogs(logs, 257)
			next := make(map[NodeID]int)
			var live liveReads
			for i, b := range program {
				if i%2 == 1 {
					// Odd bytes advance: scale the byte across [0, 2*end) so
					// overshoot (clamping) is exercised too.
					if _, err := sess.Advance(int64(b) * 2 * end / 256); err != nil {
						t.Fatal(err)
					}
					live.check(t, sess)
					continue
				}
				n := nodes[int(b>>1)%len(nodes)]
				if b&1 == 1 {
					through := int64(math.MaxInt64)
					if next[n] < len(frags[n]) {
						through = frags[n][next[n]][0].Time
					}
					sess.Punctuate(n, through)
					continue
				}
				if next[n] < len(frags[n]) {
					if err := sess.Append(n, frags[n][next[n]]); err != nil {
						t.Fatal(err)
					}
					next[n]++
				}
			}
			// Deliver every remaining fragment, then drain.
			for _, n := range nodes {
				for ; next[n] < len(frags[n]); next[n]++ {
					if err := sess.Append(n, frags[n][next[n]]); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, rep := sess.Drain()
			live.unchanged(t)
			checkDrained(t, want.Result, res, retain)
			if !reflect.DeepEqual(want.Report.Outcomes, rep.Outcomes) {
				t.Errorf("outcomes diverged under schedule %x (RetainFlows %v)", program, retain)
			}
			if !reflect.DeepEqual(want.Report.Breakdown(), rep.Breakdown()) {
				t.Errorf("breakdown diverged under schedule %x (RetainFlows %v):\n got %v\nwant %v",
					program, retain, rep.Breakdown(), want.Report.Breakdown())
			}
		}
	})
}
