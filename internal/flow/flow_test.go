package flow

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
)

var pkt = event.PacketID{Origin: 1, Seq: 4}

func item(t event.Type, s, r event.NodeID, inferred bool, ts int64) Item {
	node := r
	if t.SenderSide() || t == event.Gen {
		node = s
	}
	return Item{Event: event.Event{Node: node, Type: t, Sender: s, Receiver: r, Packet: pkt, Time: ts}, Inferred: inferred}
}

func sampleFlow() *Flow {
	f := &Flow{Packet: pkt}
	f.Append(item(event.Gen, 1, event.NoNode, false, 10))
	f.Append(item(event.Trans, 1, 2, false, 20))
	f.Append(item(event.Recv, 1, 2, true, 0))
	f.Append(item(event.AckRecvd, 1, 2, false, 30))
	f.Append(item(event.Trans, 2, 3, true, 0))
	f.Append(item(event.Recv, 2, 3, false, 50))
	return f
}

func TestItemString(t *testing.T) {
	it := item(event.Recv, 1, 2, true, 0)
	if got := it.String(); got != "[1-2 recv]" {
		t.Errorf("String = %q", got)
	}
	it.Inferred = false
	if got := it.String(); got != "1-2 recv" {
		t.Errorf("String = %q", got)
	}
}

func TestFlowString(t *testing.T) {
	f := &Flow{Packet: pkt}
	f.Append(item(event.Trans, 1, 2, false, 0))
	f.Append(item(event.Recv, 1, 2, true, 0))
	if got := f.String(); got != "1-2 trans, [1-2 recv]" {
		t.Errorf("String = %q", got)
	}
}

func TestCounts(t *testing.T) {
	f := sampleFlow()
	if f.InferredCount() != 2 {
		t.Errorf("InferredCount = %d", f.InferredCount())
	}
	if f.LoggedCount() != 4 {
		t.Errorf("LoggedCount = %d", f.LoggedCount())
	}
}

func TestContains(t *testing.T) {
	f := sampleFlow()
	k := event.Key{Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt}
	tru, fls := true, false
	if !f.Contains(k, nil) || !f.Contains(k, &tru) || f.Contains(k, &fls) {
		t.Error("Contains filters wrong")
	}
	absent := event.Key{Type: event.Dup, Sender: 1, Receiver: 2, Packet: pkt}
	if f.Contains(absent, nil) {
		t.Error("Contains found absent key")
	}
}

func TestDelivered(t *testing.T) {
	f := sampleFlow()
	if f.Delivered() {
		t.Error("not delivered yet")
	}
	f.Append(Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv,
		Sender: 3, Receiver: event.Server, Packet: pkt, Time: 60}})
	if !f.Delivered() {
		t.Error("delivered after srecv")
	}
}

func TestPath(t *testing.T) {
	f := sampleFlow()
	want := []event.NodeID{1, 2, 3}
	if got := f.Path(); !reflect.DeepEqual(got, want) {
		t.Errorf("Path = %v, want %v", got, want)
	}
}

func TestPathStartsAtOriginEvenWithoutOriginEvents(t *testing.T) {
	f := &Flow{Packet: pkt}
	f.Append(item(event.Recv, 1, 2, false, 5))
	if got := f.Path(); !reflect.DeepEqual(got, []event.NodeID{1, 2}) {
		t.Errorf("Path = %v", got)
	}
}

func TestHasLoop(t *testing.T) {
	f := sampleFlow()
	if f.HasLoop() {
		t.Error("linear path misdetected as loop")
	}
	f.Append(item(event.Trans, 3, 1, false, 60))
	f.Append(item(event.Recv, 3, 1, false, 70))
	if !f.HasLoop() {
		t.Errorf("loop not detected, path %v", f.Path())
	}
}

func TestLastCustody(t *testing.T) {
	f := sampleFlow()
	it, holder, ok := f.LastCustody()
	if !ok || holder != 3 || it.Event.Type != event.Recv {
		t.Errorf("LastCustody = %v at %v ok=%v", it, holder, ok)
	}
	empty := &Flow{Packet: pkt}
	if _, _, ok := empty.LastCustody(); ok {
		t.Error("empty flow should have no custody")
	}
	// Acks are not custody events.
	f2 := &Flow{Packet: pkt}
	f2.Append(item(event.Trans, 1, 2, false, 5))
	f2.Append(item(event.AckRecvd, 1, 2, false, 6))
	_, holder, _ = f2.LastCustody()
	if holder != 1 {
		t.Errorf("holder = %v, want 1 (ack is not custody)", holder)
	}
}

func TestVisitLookups(t *testing.T) {
	f := &Flow{Packet: pkt}
	f.Visits = []Visit{
		{Node: 2, Index: 0, State: "Acked"},
		{Node: 2, Index: 1, State: "Sent"},
		{Node: 3, Index: 0, State: "Received"},
	}
	if v, ok := f.VisitFor(2, 1); !ok || v.State != "Sent" {
		t.Errorf("VisitFor(2,1) = %+v ok=%v", v, ok)
	}
	if _, ok := f.VisitFor(4, 0); ok {
		t.Error("VisitFor(4,0) should miss")
	}
	if v, ok := f.LastVisit(2); !ok || v.Index != 1 {
		t.Errorf("LastVisit(2) = %+v ok=%v", v, ok)
	}
	if _, ok := f.LastVisit(9); ok {
		t.Error("LastVisit(9) should miss")
	}
}

func TestRetransmissions(t *testing.T) {
	f := &Flow{Packet: pkt}
	f.Append(item(event.Trans, 1, 2, false, 1))
	f.Append(item(event.Trans, 1, 2, false, 2))
	f.Append(item(event.Trans, 1, 2, false, 3))
	f.Append(item(event.Trans, 2, 3, false, 4))
	got := f.Retransmissions()
	if got[[2]event.NodeID{1, 2}] != 2 {
		t.Errorf("hop 1-2 retransmissions = %d, want 2", got[[2]event.NodeID{1, 2}])
	}
	if _, ok := got[[2]event.NodeID{2, 3}]; ok {
		t.Error("single-attempt hop must be omitted")
	}
}

// TestPathPropertiesOnRandomFlows checks structural invariants of Path() on
// randomized item sequences: it always starts at the packet origin, never
// contains consecutive duplicates, and only contains nodes that appear in
// the items (plus the origin).
func TestPathPropertiesOnRandomFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	types := []event.Type{event.Gen, event.Recv, event.Trans, event.AckRecvd,
		event.Dup, event.Overflow, event.Timeout, event.ServerRecv}
	for trial := 0; trial < 300; trial++ {
		f := &Flow{Packet: pkt}
		mentioned := map[event.NodeID]bool{pkt.Origin: true}
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			ty := types[rng.Intn(len(types))]
			a := event.NodeID(rng.Intn(5) + 1)
			b := event.NodeID(rng.Intn(5) + 1)
			for b == a {
				b = event.NodeID(rng.Intn(5) + 1)
			}
			var e event.Event
			switch {
			case ty == event.Gen:
				e = event.Event{Node: pkt.Origin, Type: ty, Sender: pkt.Origin, Packet: pkt}
			case ty == event.ServerRecv:
				e = event.Event{Node: event.Server, Type: ty, Sender: a,
					Receiver: event.Server, Packet: pkt}
			case ty.SenderSide():
				e = event.Event{Node: a, Type: ty, Sender: a, Receiver: b, Packet: pkt}
			default:
				e = event.Event{Node: b, Type: ty, Sender: a, Receiver: b, Packet: pkt}
			}
			mentioned[e.Sender] = true
			mentioned[e.Receiver] = true
			f.Append(Item{Event: e, Inferred: rng.Intn(3) == 0})
		}
		path := f.Path()
		if len(path) == 0 || path[0] != pkt.Origin {
			t.Fatalf("trial %d: path %v does not start at origin", trial, path)
		}
		for i := 1; i < len(path); i++ {
			if path[i] == path[i-1] {
				t.Fatalf("trial %d: consecutive duplicate in %v", trial, path)
			}
			if !mentioned[path[i]] {
				t.Fatalf("trial %d: path node %v never mentioned", trial, path[i])
			}
		}
		// HasLoop consistency: true iff some node repeats in the path.
		seen := map[event.NodeID]bool{}
		loop := false
		for _, n := range path {
			if seen[n] {
				loop = true
			}
			seen[n] = true
		}
		if loop != f.HasLoop() {
			t.Fatalf("trial %d: HasLoop=%v but path=%v", trial, f.HasLoop(), path)
		}
	}
}
