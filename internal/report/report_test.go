package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
	"repro/internal/sim"
	"repro/internal/sim/topology"
)

var pkt = event.PacketID{Origin: 2, Seq: 1}

func mkReport() *diagnosis.Report {
	sink := event.NodeID(1)
	mk := func(visits []flow.Visit, items ...flow.Item) *flow.Flow {
		return &flow.Flow{Packet: pkt, Items: items, Visits: visits}
	}
	recvItem := func(s, r event.NodeID, ts int64) flow.Item {
		return flow.Item{Event: event.Event{Node: r, Type: event.Recv, Sender: s, Receiver: r, Packet: pkt, Time: ts}}
	}
	flows := []*flow.Flow{
		mk(nil, flow.Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv,
			Sender: sink, Receiver: event.Server, Packet: pkt, Time: 5}}),
		mk([]flow.Visit{{Node: sink, State: fsm.StateReceived, LastPos: 0}}, recvItem(3, sink, 10)),
		mk([]flow.Visit{{Node: 4, State: fsm.StateReceived, LastPos: 0}}, recvItem(3, 4, 20)),
		mk([]flow.Visit{{Node: 5, State: fsm.StateTimedOut, Peer: 6, LastPos: 0}},
			flow.Item{Event: event.Event{Node: 5, Type: event.Timeout, Sender: 5, Receiver: 6, Packet: pkt, Time: 30}}),
	}
	return diagnosis.BuildConfig(flows, nil, diagnosis.Config{Sink: sink, End: 100})
}

func TestBreakdownRendering(t *testing.T) {
	s := Breakdown(mkReport())
	for _, want := range []string{"received", "timeout", "%losses", "at sink"} {
		if !strings.Contains(s, want) {
			t.Errorf("breakdown missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "delivered ") && strings.Contains(s, "delivered  ") {
		t.Error("delivered should not appear as a loss cause row")
	}
}

func TestDailyRendering(t *testing.T) {
	s := Daily(mkReport(), 15, 3)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header + 3 days
		t.Errorf("daily rows = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "day") {
		t.Error("missing header")
	}
}

func TestScatterRendering(t *testing.T) {
	pts := []diagnosis.Point{
		{Time: 10, Node: 1, Cause: diagnosis.ReceivedLoss},
		{Time: 12, Node: 2, Cause: diagnosis.ReceivedLoss},
		{Time: int64(sim.Hour) + 5, Node: 1, Cause: diagnosis.TimeoutLoss},
	}
	s := Scatter(pts, int64(sim.Hour), "test view")
	if !strings.Contains(s, "test view: 3 lost packets in 2 bins") {
		t.Errorf("header wrong:\n%s", s)
	}
	if !strings.Contains(s, "received") || !strings.Contains(s, "timeout") {
		t.Errorf("cause columns missing:\n%s", s)
	}
}

func TestScatterZeroBin(t *testing.T) {
	s := Scatter([]diagnosis.Point{{Time: 5, Node: 1, Cause: diagnosis.DupLoss}}, 0, "x")
	if !strings.Contains(s, "1 lost packets") {
		t.Errorf("zero bin should default:\n%s", s)
	}
}

func TestSpatialRendering(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	rep := mkReport()
	s := Spatial(rep, topo, 10)
	if !strings.Contains(s, "SINK") {
		t.Errorf("sink marker missing:\n%s", s)
	}
	if !strings.Contains(s, "recvloss") {
		t.Errorf("header missing:\n%s", s)
	}
}

func TestAccuracyTableRendering(t *testing.T) {
	rows := []AccuracyRow{
		{Name: "refill", Acc: core.Accuracy{Truth: 10, Compared: 10, DeliveredAgree: 10,
			LostBoth: 4, CauseAgree: 3, PositionAgree: 2}},
		{Name: "naive", Acc: core.Accuracy{Truth: 10, Compared: 10, DeliveredAgree: 8,
			LostBoth: 4, CauseAgree: 0, PositionAgree: 0}},
	}
	s := AccuracyTable(rows)
	if !strings.Contains(s, "refill") || !strings.Contains(s, "naive") {
		t.Errorf("rows missing:\n%s", s)
	}
	if !strings.Contains(s, "75.0%") { // 3/4 cause agreement
		t.Errorf("cause rate not rendered:\n%s", s)
	}
}
