package diagnosis

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
)

var pkt = event.PacketID{Origin: 1, Seq: 2}

// mkFlow assembles a flow with the given visits; items only as needed for
// timing/delivery checks.
func mkFlow(visits []flow.Visit, items ...flow.Item) *flow.Flow {
	f := &flow.Flow{Packet: pkt}
	f.Items = items
	f.Visits = visits
	return f
}

func loggedItem(t event.Type, s, r event.NodeID, ts int64) flow.Item {
	node := r
	if t.SenderSide() || t == event.Gen {
		node = s
	}
	return flow.Item{Event: event.Event{Node: node, Type: t, Sender: s, Receiver: r, Packet: pkt, Time: ts}}
}

func TestClassifyDelivered(t *testing.T) {
	f := mkFlow(nil, flow.Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv,
		Sender: 9, Receiver: event.Server, Packet: pkt, Time: 100}})
	out := Classify(f)
	if out.Cause != Delivered || out.Position != event.Server {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyReceivedLoss(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateAcked, LastPos: 2},
		{Node: 2, Index: 0, State: fsm.StateReceived, RecvInferred: false, LastPos: 3},
	}, loggedItem(event.Recv, 1, 2, 77))
	out := Classify(f)
	if out.Cause != ReceivedLoss || out.Position != 2 {
		t.Errorf("outcome = %+v", out)
	}
	if !out.TimeValid || out.LossTime != 77 {
		t.Errorf("loss time = %d valid=%v", out.LossTime, out.TimeValid)
	}
}

func TestClassifyAckedLoss(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateAcked, LastPos: 2},
		{Node: 2, Index: 0, State: fsm.StateReceived, RecvInferred: true, LastPos: 3},
	})
	out := Classify(f)
	if out.Cause != AckedLoss || out.Position != 2 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyTransitLoss(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateSent, Peer: 2, LastPos: 1},
	})
	out := Classify(f)
	if out.Cause != TransitLoss || out.Position != 1 || out.Toward != 2 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyTimeoutLoss(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 3, Index: 0, State: fsm.StateTimedOut, Peer: 4, LastPos: 5},
	})
	out := Classify(f)
	if out.Cause != TimeoutLoss || out.Position != 3 || out.Toward != 4 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyDupAndOverflow(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateAcked, LastPos: 1},
		{Node: 2, Index: 0, State: fsm.StateDupDrop, LastPos: 4},
	})
	if out := Classify(f); out.Cause != DupLoss || out.Position != 2 {
		t.Errorf("dup outcome = %+v", out)
	}
	f = mkFlow([]flow.Visit{
		{Node: 2, Index: 0, State: fsm.StateOverflow, LastPos: 4},
	})
	if out := Classify(f); out.Cause != OverflowLoss || out.Position != 2 {
		t.Errorf("overflow outcome = %+v", out)
	}
}

func TestClassifyLiveBeatsDrop(t *testing.T) {
	// A live Received visit outranks a later duplicate drop: the dup was a
	// suppressed copy, the real packet still sits in the node.
	f := mkFlow([]flow.Visit{
		{Node: 2, Index: 0, State: fsm.StateReceived, LastPos: 2},
		{Node: 2, Index: 1, State: fsm.StateDupDrop, LastPos: 5},
	})
	out := Classify(f)
	if out.Cause != ReceivedLoss || out.Position != 2 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyLatestLiveWins(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateSent, Peer: 2, LastPos: 1},
		{Node: 2, Index: 0, State: fsm.StateReceived, LastPos: 3},
	})
	out := Classify(f)
	if out.Cause != ReceivedLoss || out.Position != 2 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyStuckAtOrigin(t *testing.T) {
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateHas, LastPos: 0},
	}, loggedItem(event.Gen, 1, event.NoNode, 5))
	out := Classify(f)
	if out.Cause != ReceivedLoss || out.Position != 1 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestClassifyUnknown(t *testing.T) {
	out := Classify(mkFlow(nil))
	if out.Cause != Unknown || out.Position != event.NoNode {
		t.Errorf("outcome = %+v", out)
	}
}

func TestOutagesFromOperational(t *testing.T) {
	ops := []event.Event{
		{Node: event.Server, Type: event.ServerDown, Time: 100},
		{Node: event.Server, Type: event.ServerUp, Time: 200},
		{Node: event.Server, Type: event.ServerDown, Time: 500},
	}
	sched := OutagesFromOperational(ops, 900)
	if len(sched) != 2 {
		t.Fatalf("windows = %v", sched)
	}
	if sched[0] != (Window{100, 200}) || sched[1] != (Window{500, 900}) {
		t.Errorf("windows = %v", sched)
	}
	for _, c := range []struct {
		t    int64
		want bool
	}{{99, false}, {100, true}, {199, true}, {200, false}, {600, true}, {899, true}} {
		if sched.Covers(c.t) != c.want {
			t.Errorf("Covers(%d) = %v, want %v", c.t, !c.want, c.want)
		}
	}
}

// TestOutagesNestDoubleDown: two downs need two ups. With one of them lost,
// the outage the first down opened stays open to the campaign end.
func TestOutagesNestDoubleDown(t *testing.T) {
	ops := []event.Event{
		{Node: event.Server, Type: event.ServerDown, Time: 10},
		{Node: event.Server, Type: event.ServerDown, Time: 20},
		{Node: event.Server, Type: event.ServerUp, Time: 30},
	}
	sched := OutagesFromOperational(ops, 100)
	if len(sched) != 1 || sched[0] != (Window{10, 100}) {
		t.Errorf("windows = %v", sched)
	}
}

func TestApplyOutagesReclassifiesSinkLosses(t *testing.T) {
	sched := OutageSchedule{{100, 200}}
	sink := event.NodeID(7)
	in := Outcome{Cause: ReceivedLoss, Position: sink, LossTime: 150, TimeValid: true}
	out := ApplyOutages(in, sched, sink)
	if out.Cause != ServerOutage || out.Position != event.Server {
		t.Errorf("outcome = %+v", out)
	}
	// Outside the window: untouched.
	in.LossTime = 250
	if out := ApplyOutages(in, sched, sink); out.Cause != ReceivedLoss {
		t.Errorf("outcome = %+v", out)
	}
	// Non-sink positions: untouched.
	in.LossTime, in.Position = 150, 3
	if out := ApplyOutages(in, sched, sink); out.Cause != ReceivedLoss {
		t.Errorf("outcome = %+v", out)
	}
	// Non-loss causes: untouched.
	del := Outcome{Cause: Delivered, Position: event.Server, LossTime: 150, TimeValid: true}
	if out := ApplyOutages(del, sched, sink); out.Cause != Delivered {
		t.Errorf("outcome = %+v", out)
	}
}

func buildSampleReport() *Report {
	sink := event.NodeID(9)
	flows := []*flow.Flow{
		// delivered
		mkFlow(nil, flow.Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv, Sender: sink, Receiver: event.Server, Packet: pkt, Time: 10}}),
		// received loss at sink during outage -> ServerOutage
		mkFlow([]flow.Visit{{Node: sink, State: fsm.StateReceived, LastPos: 0}},
			loggedItem(event.Recv, 3, sink, 150)),
		// received loss at node 2 (not sink)
		mkFlow([]flow.Visit{{Node: 2, State: fsm.StateReceived, LastPos: 0}},
			loggedItem(event.Recv, 1, 2, 300)),
		// acked loss at sink outside outage
		mkFlow([]flow.Visit{{Node: sink, State: fsm.StateReceived, RecvInferred: true, LastPos: 1}},
			loggedItem(event.AckRecvd, 3, sink, 400)),
		// timeout loss
		mkFlow([]flow.Visit{{Node: 5, State: fsm.StateTimedOut, Peer: 6, LastPos: 0}},
			loggedItem(event.Timeout, 5, 6, 500)),
	}
	ops := []event.Event{
		{Node: event.Server, Type: event.ServerDown, Time: 100},
		{Node: event.Server, Type: event.ServerUp, Time: 200},
	}
	return BuildConfig(flows, ops, Config{Sink: sink, End: 1000})
}

func TestReportBreakdown(t *testing.T) {
	r := buildSampleReport()
	b := r.Breakdown()
	if b[Delivered] != 1 || b[ServerOutage] != 1 || b[ReceivedLoss] != 1 ||
		b[AckedLoss] != 1 || b[TimeoutLoss] != 1 {
		t.Errorf("breakdown = %v", b)
	}
	if r.Total() != 5 || r.LossCount() != 4 {
		t.Errorf("total=%d losses=%d", r.Total(), r.LossCount())
	}
	if got := r.LossFraction(TimeoutLoss); got != 0.25 {
		t.Errorf("timeout fraction = %v", got)
	}
}

func TestReportSplitBySink(t *testing.T) {
	r := buildSampleReport()
	s := r.SplitBySink(AckedLoss)
	if s.AtSink != 1 || s.Elsewhere != 0 {
		t.Errorf("acked split = %+v", s)
	}
	s = r.SplitBySink(ReceivedLoss)
	if s.AtSink != 0 || s.Elsewhere != 1 {
		t.Errorf("received split = %+v", s)
	}
}

func TestReportPoints(t *testing.T) {
	r := buildSampleReport()
	src := r.SourcePoints()
	pos := r.PositionPoints()
	if len(src) != 4 {
		t.Errorf("source points = %d, want 4", len(src))
	}
	if len(pos) != 4 {
		t.Errorf("position points = %d, want 4", len(pos))
	}
	for i := 1; i < len(src); i++ {
		if src[i].Time < src[i-1].Time {
			t.Error("source points unsorted")
		}
	}
	// Source view attributes to the origin; position view to the site.
	for _, p := range src {
		if p.Node != pkt.Origin {
			t.Errorf("source point node = %v, want origin %v", p.Node, pkt.Origin)
		}
	}
}

func TestReportDailyComposition(t *testing.T) {
	r := buildSampleReport()
	days := r.DailyComposition(200, 3)
	if len(days) != 3 {
		t.Fatalf("days = %d", len(days))
	}
	// t=150 -> day 0; t=300 -> day 1; t=400,500 -> day 2.
	if days[0][ServerOutage] != 1 {
		t.Errorf("day0 = %v", days[0])
	}
	if days[1][ReceivedLoss] != 1 {
		t.Errorf("day1 = %v", days[1])
	}
	if days[2][AckedLoss] != 1 || days[2][TimeoutLoss] != 1 {
		t.Errorf("day2 = %v", days[2])
	}
}

func TestReportLossesBySite(t *testing.T) {
	r := buildSampleReport()
	m := r.LossesBySite(ReceivedLoss)
	if m[2] != 1 || len(m) != 1 {
		t.Errorf("received by site = %v", m)
	}
}

func TestReportTopLossPositions(t *testing.T) {
	r := buildSampleReport()
	top := r.TopLossPositions(2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	// Every position has exactly one loss; ties break by node ID.
	if top[0].Count != 1 {
		t.Errorf("top[0] = %+v", top[0])
	}
}

func TestCauseStrings(t *testing.T) {
	for _, c := range Causes() {
		if c.String() == "" || c.String()[0] == 'c' && c != numCauses {
			continue
		}
	}
	if Delivered.String() != "delivered" || AckedLoss.String() != "acked" {
		t.Error("cause names wrong")
	}
	if len(Causes()) != int(numCauses) {
		t.Errorf("Causes() = %v", Causes())
	}
}

func TestClassifySupersededSentVisit(t *testing.T) {
	// The sender's ack record was lost, so its visit dangles at Sent —
	// but the receiver demonstrably got the packet (one reception per
	// Sent-reaching visit on the hop). The frontier is the receiver.
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateSent, Peer: 2, LastPos: 5},
		{Node: 2, Index: 0, State: fsm.StateReceived, LastPos: 2},
	},
		loggedItem(event.Trans, 1, 2, 10),
		loggedItem(event.Recv, 1, 2, 20),
	)
	out := Classify(f)
	if out.Cause != ReceivedLoss || out.Position != 2 {
		t.Errorf("outcome = %+v, want received loss at 2", out)
	}
}

func TestClassifyUnresolvedRetransmissionNotSuperseded(t *testing.T) {
	// Two Sent-reaching visits on the hop but only ONE reception (the
	// paper's Case 3): the second transmission is genuinely dangling.
	f := mkFlow([]flow.Visit{
		{Node: 1, Index: 0, State: fsm.StateAcked, Peer: 2, LastPos: 2},
		{Node: 2, Index: 0, State: fsm.StateReceived, RecvInferred: true, LastPos: 1},
		{Node: 1, Index: 1, State: fsm.StateSent, Peer: 2, LastPos: 3},
	},
		loggedItem(event.AckRecvd, 1, 2, 10),
		loggedItem(event.Trans, 1, 2, 20),
	)
	// Items: only one recv evidence (inferred) exists in flow? Add it.
	f.Items = append([]flow.Item{{Event: event.Event{Node: 2, Type: event.Recv,
		Sender: 1, Receiver: 2, Packet: pkt}, Inferred: true}}, f.Items...)
	out := Classify(f)
	if out.Cause != TransitLoss || out.Position != 1 {
		t.Errorf("outcome = %+v, want transit loss at 1", out)
	}
}

// TestAggregateSettleIncremental feeds a running aggregate batches of random
// loss outcomes — through Add and through Merge, as a session's windows
// arrive — and settles it after each batch. Its points must always equal a
// fresh aggregate's over every outcome so far, settled from nothing: the
// tail sort, the merge into the prefix and the settled counts must agree
// with one full sort. Times collide often, so Node and Cause order ties.
func TestAggregateSettleIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	causes := []Cause{ReceivedLoss, AckedLoss, TimeoutLoss, OverflowLoss}
	live := NewAggregate(1, 0, 0, 0)
	var seen []Outcome
	for batch := 0; batch < 40; batch++ {
		w := NewAggregate(1, 0, 0, 0)
		for n := rng.Intn(20); n > 0; n-- {
			o := Outcome{
				Packet:    event.PacketID{Origin: event.NodeID(rng.Intn(5)), Seq: uint32(rng.Intn(100))},
				Position:  event.NodeID(rng.Intn(4)),
				Cause:     causes[rng.Intn(len(causes))],
				LossTime:  int64(rng.Intn(30)),
				TimeValid: true,
			}
			if o.Position == 0 {
				o.Position = event.NoNode
			}
			if batch%2 == 0 {
				live.Add(o)
			} else {
				w.Add(o)
			}
			seen = append(seen, o)
		}
		live.Merge(w)
		if batch%3 == 2 {
			continue // settle two batches' worth at once
		}
		live.Settle()
		if live.srcSettled != len(live.srcPts) || live.posSettled != len(live.posPts) {
			t.Fatalf("batch %d: settled %d/%d of %d/%d points", batch, live.srcSettled, live.posSettled, len(live.srcPts), len(live.posPts))
		}
		ref := NewAggregate(1, 0, 0, 0)
		for _, o := range seen {
			ref.Add(o)
		}
		ref.Settle()
		if !reflect.DeepEqual(live.srcPts, ref.srcPts) || !reflect.DeepEqual(live.posPts, ref.posPts) {
			t.Fatalf("batch %d: incrementally settled points diverged from one full sort", batch)
		}
		if c := live.Clone(); c.srcSettled != live.srcSettled || c.posSettled != live.posSettled {
			t.Fatalf("batch %d: clone is less settled than the original", batch)
		}
	}
}

// TestReportConcurrentReads reads a hand-assembled report, which carries no
// aggregate, from several goroutines at once: under -race it fails if any
// read stores what it folds.
func TestReportConcurrentReads(t *testing.T) {
	r := &Report{Sink: 2, Outcomes: []Outcome{
		{Packet: event.PacketID{Origin: 1, Seq: 1}, Cause: Delivered, Position: event.Server},
		{Packet: event.PacketID{Origin: 1, Seq: 2}, Cause: ReceivedLoss, Position: 2, LossTime: 50, TimeValid: true},
		{Packet: event.PacketID{Origin: 3, Seq: 1}, Cause: TimeoutLoss, Position: 3, Toward: 2, LossTime: 20, TimeValid: true},
	}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := r.LossCount(); n != 2 {
				t.Errorf("LossCount = %d, want 2", n)
			}
			if b := r.Breakdown(); b[TimeoutLoss] != 1 || b[ReceivedLoss] != 1 {
				t.Errorf("Breakdown = %v", b)
			}
			if s := r.SplitBySink(ReceivedLoss); s.AtSink != 1 {
				t.Errorf("SplitBySink = %+v", s)
			}
			if pts := r.PositionPoints(); len(pts) != 2 || pts[0].Time != 20 {
				t.Errorf("PositionPoints = %v", pts)
			}
		}()
	}
	wg.Wait()
	if r.agg != nil {
		t.Error("a read stored an aggregate on the report")
	}
}
