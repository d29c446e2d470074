package engine

// Fallback-corner coverage for the walk (run.process): revisit rotation, the
// origin's alternative forwarding template, and prerequisite chains that run
// mid-event.

import (
	"testing"

	"repro/internal/event"
	"repro/internal/fsm"
)

// TestWalkRevisitRotate drives the rotate fallback: a routing loop brings
// the packet back to forwarder 2, whose current visit is parked past Received
// and cannot consume the second recv — a fresh visit on the same template can,
// so the engine rotates.
func TestWalkRevisitRotate(t *testing.T) {
	pkt := event.PacketID{Origin: 1, Seq: 7}
	evs := []event.Event{
		{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt, Time: 0},
		{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 1},
		{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt, Time: 2},
		{Node: 2, Type: event.Trans, Sender: 2, Receiver: 3, Packet: pkt, Time: 3},
		{Node: 3, Type: event.Recv, Sender: 2, Receiver: 3, Packet: pkt, Time: 4},
		{Node: 3, Type: event.Trans, Sender: 3, Receiver: 2, Packet: pkt, Time: 5},
		// The loop: node 2 sees the packet again and must open visit 1.
		{Node: 2, Type: event.Recv, Sender: 3, Receiver: 2, Packet: pkt, Time: 6},
		{Node: 2, Type: event.Trans, Sender: 2, Receiver: 4, Packet: pkt, Time: 7},
		{Node: 4, Type: event.Recv, Sender: 2, Receiver: 4, Packet: pkt, Time: 8},
	}
	f := ctpEngine(t, 4).AnalyzePacket(viewOf(pkt, evs))
	if len(f.Anomalies) != 0 {
		t.Fatalf("loop flow produced anomalies: %v", f.Anomalies)
	}
	indexes := []int{}
	for _, v := range f.Visits {
		if v.Node == 2 {
			indexes = append(indexes, v.Index)
		}
	}
	if len(indexes) != 2 || indexes[0] == indexes[1] {
		t.Fatalf("node 2 should have rotated to a second visit; visit indexes = %v (flow %s)", indexes, f)
	}
}

// TestWalkOriginLoopAltGraph drives the alternative-template fallback: a
// routing loop returns the packet to its own origin, whose template never
// consumes recv — not even fresh — so the engine must rotate onto the
// forwarding template instead.
func TestWalkOriginLoopAltGraph(t *testing.T) {
	pkt := event.PacketID{Origin: 1, Seq: 9}
	evs := []event.Event{
		{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt, Time: 0},
		{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 1},
		// The loop: the packet comes back to the origin itself.
		{Node: 1, Type: event.Recv, Sender: 2, Receiver: 1, Packet: pkt, Time: 10},
		{Node: 1, Type: event.Trans, Sender: 1, Receiver: 3, Packet: pkt, Time: 11},
		{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt, Time: 2},
		{Node: 2, Type: event.Trans, Sender: 2, Receiver: 1, Packet: pkt, Time: 3},
		{Node: 3, Type: event.Recv, Sender: 1, Receiver: 3, Packet: pkt, Time: 12},
	}
	// Precondition for the corner: the origin template cannot consume a recv
	// even from a fresh start — only the alternative forwarding template can.
	og := fsm.DefaultCTP().Graph(fsm.RoleOrigin)
	recvLabel := fsm.On(event.Recv, fsm.SelfReceiver)
	if _, ok := og.Next(og.Start(), recvLabel); ok {
		t.Fatal("origin template consumes recv at start; scenario would not exercise the altGraph fallback")
	}
	f := ctpEngine(t, 3).AnalyzePacket(viewOf(pkt, evs))
	// The recv at the origin must have committed (no anomaly) into a second
	// visit — possible only by rotating onto the forwarding template.
	if len(f.Anomalies) != 0 {
		t.Fatalf("loop flow produced anomalies: %v", f.Anomalies)
	}
	second := false
	for _, v := range f.Visits {
		second = second || (v.Node == 1 && v.Index == 1)
	}
	if !second {
		t.Fatalf("origin never rotated onto a second visit: %s", f)
	}
	committed := false
	for _, it := range f.Items {
		committed = committed || (!it.Inferred && it.Event.Node == 1 && it.Event.Type == event.Recv)
	}
	if !committed {
		t.Fatalf("origin's looped recv did not commit: %s", f)
	}
}

// TestWalkPrereqChainMidEvent drives the prerequisite-chain path: the
// origin's ack-recvd demands its receiver passed Received (Definition 4.1), so
// node 2's log is consumed mid-event — its recv commits into the flow before
// the ack does — and the walk re-resolves the origin's visit before committing
// (engine.go's prerequisite re-resolve).
func TestWalkPrereqChainMidEvent(t *testing.T) {
	pkt := event.PacketID{Origin: 1, Seq: 3}
	evs := []event.Event{
		{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt, Time: 0},
		{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 1},
		{Node: 1, Type: event.AckRecvd, Sender: 1, Receiver: 2, Packet: pkt, Time: 4},
		{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt, Time: 2},
		{Node: 2, Type: event.Trans, Sender: 2, Receiver: 3, Packet: pkt, Time: 3},
		{Node: 3, Type: event.Recv, Sender: 2, Receiver: 3, Packet: pkt, Time: 5},
	}
	eng := ctpEngine(t, 3)
	f := eng.AnalyzePacket(viewOf(pkt, evs))
	// The chain ran mid-event: node 2's recv must precede node 1's ack in
	// the committed flow even though node 1's whole log sorts first.
	recvAt, ackAt := -1, -1
	for i, it := range f.Items {
		switch {
		case it.Event.Node == 2 && it.Event.Type == event.Recv:
			if recvAt < 0 {
				recvAt = i
			}
		case it.Event.Node == 1 && it.Event.Type == event.AckRecvd:
			ackAt = i
		}
	}
	if recvAt < 0 || ackAt < 0 || recvAt > ackAt {
		t.Fatalf("prerequisite chain did not run mid-event: recv at %d, ack at %d (flow %s)", recvAt, ackAt, f)
	}

	// Lossy variant: node 2 logged nothing, so the chain must infer the recv
	// instead of consuming it.
	lf := eng.AnalyzePacket(viewOf(pkt, evs[:3]))
	tru := true
	if !lf.Contains(event.Key{Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt}, &tru) {
		t.Fatalf("lossy chain did not infer node 2's recv: %s", lf)
	}
}
