package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/fsm"
)

// ctpEngine builds an engine with the full CitySee protocol.
func ctpEngine(t *testing.T, sink event.NodeID) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Options{Protocol: fsm.DefaultCTP(), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// campaign is a tiny hand-built workload: every event of every packet plus
// the operational rows, in global time order.
type campaign struct {
	sink event.NodeID
	end  int64
	evs  []event.Event
}

// delivery appends the lossless journey of pkt along path (ending at the
// sink) plus server delivery, advancing the shared tick.
func (c *campaign) delivery(tick *int64, pkt event.PacketID, path ...event.NodeID) {
	stamp := func(e event.Event) {
		*tick += 10
		e.Time = *tick
		c.evs = append(c.evs, e)
	}
	stamp(event.Event{Node: pkt.Origin, Type: event.Gen, Sender: pkt.Origin, Packet: pkt})
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		stamp(event.Event{Node: a, Type: event.Trans, Sender: a, Receiver: b, Packet: pkt})
		stamp(event.Event{Node: b, Type: event.Recv, Sender: a, Receiver: b, Packet: pkt})
		stamp(event.Event{Node: a, Type: event.AckRecvd, Sender: a, Receiver: b, Packet: pkt})
	}
	stamp(event.Event{Node: event.Server, Type: event.ServerRecv,
		Sender: path[len(path)-1], Receiver: event.Server, Packet: pkt})
}

// smallCampaign builds three delivered packets from two origins through the
// sink, with a server outage bracketing the middle one.
func smallCampaign() *campaign {
	c := &campaign{sink: 1, end: 1000}
	tick := int64(0)
	c.delivery(&tick, event.PacketID{Origin: 2, Seq: 1}, 2, 1)
	c.evs = append(c.evs, event.Event{Node: event.Server, Type: event.ServerDown, Time: tick + 5})
	c.delivery(&tick, event.PacketID{Origin: 3, Seq: 1}, 3, 2, 1)
	c.evs = append(c.evs, event.Event{Node: event.Server, Type: event.ServerUp, Time: tick + 5})
	c.delivery(&tick, event.PacketID{Origin: 2, Seq: 2}, 2, 1)
	return c
}

// perNode splits the campaign into per-node logs preserving log order.
func (c *campaign) perNode() map[event.NodeID][]event.Event {
	m := make(map[event.NodeID][]event.Event)
	for _, e := range c.evs {
		m[e.Node] = append(m[e.Node], e)
	}
	return m
}

// collection assembles the batch-path Collection of every event.
func (c *campaign) collection() *event.Collection {
	col := event.NewCollection()
	for _, e := range c.evs {
		col.Add(e)
	}
	return col
}

func (c *campaign) config() diagnosis.Config {
	return diagnosis.Config{Sink: c.sink, End: c.end}
}

func (c *campaign) session(t *testing.T, eng *engine.Engine, horizon int64) *Session {
	t.Helper()
	s, err := NewSession(Config{
		Engine: eng, Diagnosis: c.config(), Horizon: horizon, RetainFlows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidates(t *testing.T) {
	eng := ctpEngine(t, 1)
	if _, err := NewSession(Config{Diagnosis: diagnosis.Config{Sink: 1}}); err == nil {
		t.Error("expected error without engine")
	}
	if _, err := NewSession(Config{Engine: eng}); err == nil {
		t.Error("expected error without sink")
	}
	if _, err := NewSession(Config{Engine: eng, Diagnosis: diagnosis.Config{Sink: 1}, Horizon: -1}); err == nil {
		t.Error("expected error for negative horizon")
	}
}

func TestSessionDrainMatchesBatch(t *testing.T) {
	c := smallCampaign()
	// One more packet whose only record is stamped math.MaxInt64 — a
	// timestamp refill-serve accepts from an HTTP body. No strict cutoff can
	// clear it, so Drain must retire it without consulting timestamps.
	c.evs = append(c.evs, event.Event{Node: 3, Type: event.Gen, Sender: 3,
		Packet: event.PacketID{Origin: 3, Seq: 2}, Time: math.MaxInt64})
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	for n, evs := range c.perNode() {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	res, rep := s.Drain()

	if st := s.Stats(); st.PendingPackets != 0 || st.PendingRows != 0 {
		t.Errorf("drained session still holds %d packets (%d rows)", st.PendingPackets, st.PendingRows)
	}

	refRes, refRep := eng.AnalyzeDiagnosed(c.collection(), 1, c.config(), true)
	if !reflect.DeepEqual(rep.Outcomes, refRep.Outcomes) {
		t.Errorf("outcomes differ:\n got %+v\nwant %+v", rep.Outcomes, refRep.Outcomes)
	}
	if !reflect.DeepEqual(rep.Outages, refRep.Outages) {
		t.Errorf("outage schedules differ: got %+v want %+v", rep.Outages, refRep.Outages)
	}
	if !reflect.DeepEqual(res.Operational, refRes.Operational) {
		t.Errorf("operational events differ: got %+v want %+v", res.Operational, refRes.Operational)
	}
	if len(res.Flows) != len(refRes.Flows) {
		t.Fatalf("flow count: got %d want %d", len(res.Flows), len(refRes.Flows))
	}
	for i := range res.Flows {
		if res.Flows[i].Packet != refRes.Flows[i].Packet {
			t.Errorf("flow %d packet: got %v want %v", i, res.Flows[i].Packet, refRes.Flows[i].Packet)
		}
	}
}

func TestSessionAdvanceFinalizesAndEvicts(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	for n, evs := range c.perNode() {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.PendingPackets != 3 || before.FinalizedPackets != 0 {
		t.Fatalf("pre-advance stats: %+v", before)
	}

	// Node 3's log ends at t=90 (it only relays the middle packet), so
	// Advance(100) is clamped to an effective watermark of 90 — past the
	// first packet's last row (t=50) but short of the others.
	n, err := s.Advance(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Advance(100) finalized %d packets, want 1", n)
	}
	mid := s.Stats()
	if mid.PendingPackets != 2 || mid.FinalizedPackets != 1 {
		t.Errorf("post-advance stats: %+v", mid)
	}
	if mid.PendingRows >= before.PendingRows {
		t.Errorf("pending rows did not shrink: %d -> %d", before.PendingRows, mid.PendingRows)
	}
	if w := s.Watermark(); w != 90 {
		t.Errorf("watermark = %d, want 90 (clamped to node 3's log)", w)
	}

	// A second Advance to the same watermark is a no-op.
	if n, _ := s.Advance(100); n != 0 {
		t.Errorf("repeated Advance finalized %d packets, want 0", n)
	}

	if _, rep := s.Drain(); rep.Total() != 3 {
		t.Errorf("drained report total = %d, want 3", rep.Total())
	}
	if st := s.Stats(); st.PendingRows != 0 || st.PendingPackets != 0 || !st.Drained {
		t.Errorf("post-drain stats: %+v", st)
	}
}

func TestSessionWatermarkClampedToSlowestNode(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	// Feed only a prefix of node 2's log: the other nodes are unseen, so
	// they do not clamp, but node 2's own watermark does.
	s.Append(2, []event.Event{
		{Type: event.Gen, Sender: 2, Packet: event.PacketID{Origin: 2, Seq: 1}, Time: 10},
	})
	if _, err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	if w := s.Watermark(); w != 10 {
		t.Errorf("watermark = %d, want 10 (clamped to node 2)", w)
	}
}

func TestSessionRegisterHoldsWatermark(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	s.Register(7) // a source that has not produced anything yet
	s.Append(2, []event.Event{
		{Type: event.Gen, Sender: 2, Packet: event.PacketID{Origin: 2, Seq: 1}, Time: 10},
	})
	if _, err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	if w := s.Watermark(); w != math.MinInt64 {
		t.Errorf("watermark = %d, want MinInt64 (held by registered silent node)", w)
	}
	if st := s.Stats(); st.Nodes != 2 {
		t.Errorf("nodes = %d, want 2", st.Nodes)
	}
}

// TestSessionNodeTable pins what the pending store keeps for the session
// beside the rows: a registered node that never appends counts in
// Stats().Nodes, and a fragment of only server down/up rows registers its
// node and raises its watermark.
func TestSessionNodeTable(t *testing.T) {
	c := smallCampaign()
	s := c.session(t, ctpEngine(t, c.sink), 0)
	s.Register(7)
	if st := s.Stats(); st.Nodes != 1 || st.PendingRows != 0 {
		t.Fatalf("after Register: nodes = %d, pending rows = %d, want 1, 0", st.Nodes, st.PendingRows)
	}
	if err := s.Append(event.Server, []event.Event{{Type: event.ServerDown, Time: 40}, {Type: event.ServerUp, Time: 60}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Nodes != 2 || st.OperationalEvents != 2 || st.PendingRows != 0 {
		t.Fatalf("after a down/up fragment: nodes = %d, operational = %d, pending rows = %d, want 2, 2, 0",
			st.Nodes, st.OperationalEvents, st.PendingRows)
	}
	s.Punctuate(7, 100)
	if _, err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	if w := s.Watermark(); w != 60 {
		t.Errorf("watermark = %d, want 60 (held by the server's down/up fragment)", w)
	}
}

// TestSessionOpenOutageHoldsPastCampaignEnd: under a campaign end below the
// data, an open outage's reach is unknown until its server-up arrives (or
// the drain says none will), so the watermark waits at the outage's start;
// once the outage closes it moves on. With the end above the data the hold
// never binds.
func TestSessionOpenOutageHoldsPastCampaignEnd(t *testing.T) {
	for _, tc := range []struct {
		end, held int64
	}{
		{0, 55},     // the outage opens at 55
		{1000, 130}, // clamped by the server log only
	} {
		c := smallCampaign()
		c.end = tc.end
		eng := ctpEngine(t, c.sink)
		s := c.session(t, eng, 0)
		// Every log but the server's in full; the server's up to its
		// delivery at 130, so its outage (down at 55, up at 135) is open.
		var rest []event.Event
		for n, evs := range c.perNode() {
			if n == event.Server {
				rest = evs[3:]
				evs = evs[:3]
			}
			s.Append(n, evs)
			if n != event.Server {
				s.Punctuate(n, 1000)
			}
		}
		if _, err := s.Advance(1000); err != nil {
			t.Fatal(err)
		}
		if w := s.Watermark(); w != tc.held {
			t.Errorf("end %d: watermark = %d under an open outage, want %d", tc.end, w, tc.held)
		}
		s.Append(event.Server, rest) // the server-up at 135, then 180
		if _, err := s.Advance(1000); err != nil {
			t.Fatal(err)
		}
		if w := s.Watermark(); w != 180 {
			t.Errorf("end %d: watermark = %d after the outage closed, want 180", tc.end, w)
		}
		_, rep := s.Drain()
		_, want := eng.AnalyzeDiagnosed(c.collection(), 1, c.config(), true)
		if !reflect.DeepEqual(rep.Outcomes, want.Outcomes) || !reflect.DeepEqual(rep.Outages, want.Outages) {
			t.Errorf("end %d: drained report diverged from batch", tc.end)
		}
	}
}

// TestOutagePairing pins the one down/up pairing rule where it is read: the
// outage schedule (closed at end), OpenOutage, and the watermark a session
// holds past its campaign end (0) while an outage is open. Downs and ups nest:
// a down at depth 0 opens an outage, and only the up that brings the depth
// back to 0 closes it, so a lost or missing up holds the outage open to the
// campaign end. An up with no outage open is ignored; a down and an up at
// one instant hold at the later down, though the schedule merges the two
// windows into one.
func TestOutagePairing(t *testing.T) {
	d := func(at int64) event.Event { return event.Event{Node: event.Server, Type: event.ServerDown, Time: at} }
	u := func(at int64) event.Event { return event.Event{Node: event.Server, Type: event.ServerUp, Time: at} }
	w := func(start, end int64) diagnosis.Window { return diagnosis.Window{Start: start, End: end} }
	const end, through = 100, 1000
	for _, tc := range []struct {
		name  string
		ops   []event.Event
		sched diagnosis.OutageSchedule
		start int64 // the open outage's start; -1 when none is open
	}{
		{"nested-downs", []event.Event{d(10), d(20), u(30), u(40)}, diagnosis.OutageSchedule{w(10, 40)}, -1},
		{"nested-pairs", []event.Event{d(10), d(20), u(30), d(35), u(40), u(50)}, diagnosis.OutageSchedule{w(10, 50)}, -1},
		{"two-nested-outages", []event.Event{d(10), d(20), u(30), u(40), d(60), d(70), u(80), u(90)}, diagnosis.OutageSchedule{w(10, 40), w(60, 90)}, -1},
		{"lost-server-up", []event.Event{d(10), u(20), d(30), d(40), u(50)}, diagnosis.OutageSchedule{w(10, 20), w(30, end)}, 30},
		{"stray-up", []event.Event{u(5), d(10), u(20)}, diagnosis.OutageSchedule{w(10, 20)}, -1},
		{"duplicate-down", []event.Event{d(10), d(10), u(20)}, diagnosis.OutageSchedule{w(10, end)}, 10},
		{"up-and-down-at-one-instant", []event.Event{d(10), u(20), d(20)}, diagnosis.OutageSchedule{w(10, end)}, 20},
		{"trailing-open-down", []event.Event{d(10), u(20), d(30), d(40)}, diagnosis.OutageSchedule{w(10, 20), w(30, end)}, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := diagnosis.OutagesFromOperational(tc.ops, end); !reflect.DeepEqual(got, tc.sched) {
				t.Errorf("OutagesFromOperational = %v, want %v", got, tc.sched)
			}
			start, open := diagnosis.OpenOutage(tc.ops)
			if open != (tc.start >= 0) || open && start != tc.start {
				t.Errorf("OpenOutage = (%d, %v), want start %d", start, open, tc.start)
			}
			s, err := NewSession(Config{Engine: ctpEngine(t, 1), Diagnosis: diagnosis.Config{Sink: 1}})
			if err != nil {
				t.Fatal(err)
			}
			s.Append(event.Server, tc.ops)
			s.Punctuate(event.Server, through)
			if _, err := s.Advance(through); err != nil {
				t.Fatal(err)
			}
			want := int64(through)
			if open {
				want = tc.start
			}
			if w := s.Watermark(); w != want {
				t.Errorf("session held the watermark at %d, want %d", w, want)
			}
		})
	}
}

func TestSessionPunctuatePassesSilentNode(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	s.Register(7) // a source that has not produced anything yet
	s.Append(2, []event.Event{
		{Type: event.Gen, Sender: 2, Packet: event.PacketID{Origin: 2, Seq: 1}, Time: 10},
	})
	// Node 7 declares it has nothing below 200: the watermark may now pass
	// it, up to node 2's own watermark.
	s.Punctuate(7, 200)
	if _, err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	if w := s.Watermark(); w != 10 {
		t.Errorf("watermark = %d, want 10 (node 7 punctuated past node 2)", w)
	}
	// A punctuation below the node's watermark never lowers it.
	s.Punctuate(7, 5)
	s.Append(2, []event.Event{
		{Type: event.Trans, Sender: 2, Receiver: 1, Packet: event.PacketID{Origin: 2, Seq: 1}, Time: 300},
	})
	if _, err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	if w := s.Watermark(); w != 200 {
		t.Errorf("watermark = %d, want 200 (node 7's punctuation)", w)
	}
	if st := s.Stats(); st.Nodes != 2 || st.Ingested != 2 {
		t.Errorf("nodes = %d, ingested = %d; want 2 and 2 (punctuation adds no rows)", st.Nodes, st.Ingested)
	}
}

// TestSessionNegativeClocksFinalize: local clocks may sit below zero. The
// session's watermark used to start at 0, so every Advance to an effective
// watermark <= 0 was a no-op and such a session never finalized before Drain.
func TestSessionNegativeClocksFinalize(t *testing.T) {
	c := shifted(-10_000)
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	for n, evs := range c.perNode() {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	// As in TestSessionAdvanceFinalizesAndEvicts, node 3's log ends 90 after
	// the shift and clamps the advance; the first packet is complete below.
	n, err := s.Advance(-1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Advance(-1) finalized %d packets, want 1", n)
	}
	if w := s.Watermark(); w != 90-10_000 {
		t.Errorf("watermark = %d, want %d", w, 90-10_000)
	}
	if st := s.Stats(); st.PendingPackets != 2 {
		t.Errorf("pending packets = %d, want 2", st.PendingPackets)
	}
	_, rep := s.Drain()
	_, want := eng.AnalyzeDiagnosed(c.collection(), 1, c.config(), true)
	if !reflect.DeepEqual(rep.Outcomes, want.Outcomes) {
		t.Errorf("outcomes differ:\n got %+v\nwant %+v", rep.Outcomes, want.Outcomes)
	}
}

// TestSessionHorizonCutoffSaturates: on clocks below −2⁶², ew − Horizon for a
// 2⁶² horizon lies below math.MinInt64. Wrapped, the cutoff became about
// math.MaxInt64 and retired the half-fed middle packet, which then drained
// as two flows. Saturated, it retires nothing.
func TestSessionHorizonCutoffSaturates(t *testing.T) {
	const shift = -(1 << 62) - 10_000
	c := shifted(shift)
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 1<<62)
	// Round one: every row up to (unshifted) time 70 — the first packet and
	// the middle packet's gen and trans — then a cut at 70 on every node.
	const cut = 70 + shift
	rest := make(map[event.NodeID][]event.Event)
	for n, evs := range c.perNode() {
		i := 0
		for i < len(evs) && evs[i].Time <= cut {
			i++
		}
		if err := s.Append(n, evs[:i]); err != nil {
			t.Fatal(err)
		}
		rest[n] = evs[i:]
		s.Punctuate(n, cut)
	}
	if n, _ := s.Advance(cut); n != 0 {
		t.Errorf("Advance finalized %d packets under a 2^62 horizon, want 0", n)
	}
	for n, evs := range rest {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := s.Drain()
	want := eng.Analyze(c.collection())
	if len(res.Flows) != len(want.Flows) {
		t.Fatalf("drained %d flows, batch %d", len(res.Flows), len(want.Flows))
	}
	for i := range res.Flows {
		if res.Flows[i].Packet != want.Flows[i].Packet {
			t.Errorf("flow %d packet: got %v want %v", i, res.Flows[i].Packet, want.Flows[i].Packet)
		}
	}
}

// TestSessionUnboundedHorizonHoldsUntilDrain: Horizon math.MaxInt64 means no
// bound on the within-packet spread, so even an advance to math.MaxInt64
// finalizes nothing — ew − Horizon would be 0 there, below which these
// clocks lie, not "nothing".
func TestSessionUnboundedHorizonHoldsUntilDrain(t *testing.T) {
	c := shifted(-10_000)
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, math.MaxInt64)
	for n, evs := range c.perNode() {
		s.Append(n, evs)
		s.Punctuate(n, math.MaxInt64)
	}
	if n, _ := s.Advance(math.MaxInt64); n != 0 {
		t.Errorf("Advance finalized %d packets under an unbounded horizon, want 0", n)
	}
	if _, rep := s.Drain(); rep.Total() != 3 {
		t.Errorf("drained report total = %d, want 3", rep.Total())
	}
}

func TestSessionHorizonDelaysFinalization(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 40)
	for n, evs := range c.perNode() {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	// With Horizon 40 the first packet (last row at t=50) needs ew > 90.
	// Node 3's log ends at t=90, so even Advance(200) clamps to ew = 90 —
	// not strictly past 50+40 — and nothing may finalize yet.
	if n, _ := s.Advance(200); n != 0 {
		t.Errorf("Advance(200) finalized %d packets under horizon 40, want 0", n)
	}
	// A later heartbeat from node 3 releases the clamp; ew = 100 clears
	// the first packet strictly (maxTime 50 < cutoff 100-40 = 60).
	s.Append(3, []event.Event{
		{Type: event.Gen, Sender: 3, Packet: event.PacketID{Origin: 3, Seq: 99}, Time: 500},
	})
	if n, _ := s.Advance(100); n != 1 {
		t.Errorf("Advance(100) finalized %d packets, want 1", n)
	}
	s.Drain()
}

func TestSessionDrainedRejectsMutation(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	for n, evs := range c.perNode() {
		s.Append(n, evs)
	}
	res1, rep1 := s.Drain()
	res2, rep2 := s.Drain()
	if res1 != res2 || rep1 != rep2 {
		t.Error("Drain is not idempotent")
	}
	if err := s.Append(2, nil); !errors.Is(err, ErrDrained) {
		t.Errorf("Append after drain: %v, want ErrDrained", err)
	}
	if _, err := s.Advance(1); !errors.Is(err, ErrDrained) {
		t.Errorf("Advance after drain: %v, want ErrDrained", err)
	}
	if got := s.Snapshot(); got != rep1 {
		t.Error("Snapshot after drain should return the final report")
	}
}

func TestSessionSnapshotTracksProgress(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	if rep := s.Snapshot(); rep.Total() != 0 {
		t.Errorf("empty session snapshot total = %d", rep.Total())
	}
	for n, evs := range c.perNode() {
		s.Append(n, evs)
	}
	s.Advance(100)
	snap := s.Snapshot()
	if snap.Total() != 1 {
		t.Errorf("snapshot total = %d, want 1", snap.Total())
	}
	// The snapshot must be detached: draining afterwards must not disturb
	// it, and the final report still matches the batch run.
	_, final := s.Drain()
	if snap.Total() != 1 {
		t.Errorf("snapshot mutated by drain: total = %d", snap.Total())
	}
	if final.Total() != 3 {
		t.Errorf("final total = %d, want 3", final.Total())
	}
}

// TestSessionConcurrentAppendSnapshot exercises the mutex contract under the
// race detector: appenders, a snapshot reader and a stats reader all run
// concurrently against one session.
func TestSessionConcurrentAppendSnapshot(t *testing.T) {
	c := smallCampaign()
	eng := ctpEngine(t, c.sink)
	s := c.session(t, eng, 0)
	frags := c.perNode()

	// Register every node before the advancer starts: a node that has not
	// yet shown a row must still hold the watermark back, or a random
	// Advance finalizes packets whose rows are still in flight.
	for n := range frags {
		s.Register(n)
	}
	var appenders sync.WaitGroup
	for n, evs := range frags {
		appenders.Add(1)
		go func(n event.NodeID, evs []event.Event) {
			defer appenders.Done()
			// Feed one event at a time to maximize interleaving.
			for _, e := range evs {
				if err := s.Append(n, []event.Event{e}); err != nil {
					t.Error(err)
					return
				}
			}
		}(n, evs)
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-done:
				return
			default:
			}
			s.Snapshot()
			s.Stats()
			s.Advance(int64(rng.Intn(int(c.end))))
		}
	}()
	appenders.Wait()
	close(done)
	reader.Wait()

	_, rep := s.Drain()
	if rep.Total() != 3 {
		t.Errorf("drained total = %d, want 3", rep.Total())
	}
	if st := s.Stats(); st.Ingested != len(c.evs) {
		t.Errorf("ingested = %d, want %d", st.Ingested, len(c.evs))
	}
}

// TestAppendRowsEdgeCases feeds every node's log through AppendRows as
// sub-ranges [lo, hi) of the node's one batch, cut so that the server log's
// down and up are the first, a middle, the last and the only row of a
// fragment, with an advance after every round. The batches come from a text
// body whose packet rows carry Info, and from a read-only snapshot mapping of
// the same collection. Each drain must equal batch AnalyzeDiagnosed over the
// source: outcomes, outages, operational events, and flows with their Info.
func TestAppendRowsEdgeCases(t *testing.T) {
	c := smallCampaign()
	tick := c.evs[len(c.evs)-1].Time
	for seq := uint32(3); seq < 9; seq++ { // every node keeps logging, so the watermark moves
		c.delivery(&tick, event.PacketID{Origin: 3, Seq: seq}, 3, 2, 1)
	}
	for i := range c.evs {
		if i%3 == 1 && c.evs[i].Type.PacketScoped() {
			c.evs[i].Info = fmt.Sprintf("rssi=-%d", 60+i)
		}
	}
	var body bytes.Buffer
	if err := event.WriteCollection(&body, c.collection()); err != nil {
		t.Fatal(err)
	}
	text, err := event.ReadCollection(&body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.snap")
	if err := event.WriteSnapshot(path, text); err != nil {
		t.Fatal(err)
	}
	snap, err := event.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if !snap.Collection().Logs[event.Server].Batch().ReadOnly() {
		t.Fatal("the snapshot's batches are writable; the read-only case is not covered")
	}
	if got := text.Logs[event.Server].Events(); got[1].Type != event.ServerDown || got[3].Type != event.ServerUp {
		t.Fatalf("server log %v: the cuts below assume deliver, down, deliver, up", got)
	}
	eng := ctpEngine(t, c.sink)
	horizon := event.MaxPacketSpread(text)
	wantRes, want := eng.AnalyzeDiagnosed(text, 1, c.config(), true)
	infos := 0
	for _, f := range wantRes.Flows {
		for _, it := range f.Items {
			if it.Event.Info != "" {
				infos++
			}
		}
	}
	if infos == 0 {
		t.Fatal("no flow item carries Info; the Info case is not covered")
	}
	for _, src := range []struct {
		name string
		c    *event.Collection
	}{{"text", text}, {"snapshot", snap.Collection()}} {
		for _, cuts := range []struct {
			name string
			at   []int // fragment boundaries inside every log, clamped to its length
		}{
			{"op-middle", nil},
			{"op-first", []int{1, 3, 12}},
			{"op-last", []int{2, 4, 12}},
			{"op-alone", []int{1, 2, 3, 4, 12}},
		} {
			s := c.session(t, eng, horizon)
			for round := 0; round <= len(cuts.at); round++ {
				for _, n := range src.c.Nodes() {
					b := src.c.Logs[n].Batch()
					lo, hi := 0, b.Len()
					if round > 0 {
						lo = min(cuts.at[round-1], hi)
					}
					if round < len(cuts.at) {
						hi = min(cuts.at[round], hi)
					}
					if err := s.AppendRows(n, b, lo, hi); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Advance(math.MaxInt64); err != nil {
					t.Fatal(err)
				}
			}
			label := src.name + "/" + cuts.name
			if st := s.Stats(); len(cuts.at) > 0 && st.FinalizedPackets == 0 {
				t.Errorf("%s: nothing retired before the drain", label)
			}
			res, rep := s.Drain()
			if !reflect.DeepEqual(rep.Outcomes, want.Outcomes) || !reflect.DeepEqual(rep.Outages, want.Outages) {
				t.Errorf("%s: report diverged from batch\n got %+v %+v\nwant %+v %+v", label, rep.Outcomes, rep.Outages, want.Outcomes, want.Outages)
			}
			if !reflect.DeepEqual(res.Operational, wantRes.Operational) {
				t.Errorf("%s: operational events %+v, batch %+v", label, res.Operational, wantRes.Operational)
			}
			if !reflect.DeepEqual(res.Flows, wantRes.Flows) {
				t.Errorf("%s: flows diverged from batch", label)
			}
		}
	}
}
