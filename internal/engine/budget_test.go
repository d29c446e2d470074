package engine

import (
	"strings"
	"testing"

	"repro/internal/event"
)

// buildRetargetCollection returns a collection whose reconstruction needs two
// inferences, in order: node 2's dup implies a lost recv at node 2 (self-
// prerequisite), and node 3's recv from node 1 finds node 1's engine bound to
// peer 2 — a peer-binding mismatch that infers a retargeted transmission
// 1 -> 3 over the Sent self-loop.
func buildRetargetCollection() *event.Collection {
	pkt := event.PacketID{Origin: 1, Seq: 1}
	c := event.NewCollection()
	c.Add(event.Event{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt, Time: 0})
	c.Add(event.Event{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 1})
	c.Add(event.Event{Node: 2, Type: event.Dup, Sender: 1, Receiver: 2, Packet: pkt, Time: 2})
	c.Add(event.Event{Node: 3, Type: event.Recv, Sender: 1, Receiver: 3, Packet: pkt, Time: 3})
	return c
}

// TestCheckPeerBindingHonorsInferredBudget is the regression test for the
// budget bypass: checkPeerBinding used to apply its retargeted transmission
// and bump the inference counter without consulting the budget. With a
// budget of one, the dup's inferred recv must consume it and the retargeted
// transmission must be refused with the budget anomaly.
func TestCheckPeerBindingHonorsInferredBudget(t *testing.T) {
	eng, err := New(Options{Sink: 99})
	if err != nil {
		t.Fatal(err)
	}
	eng.maxInferred = 1
	res := eng.Analyze(buildRetargetCollection())
	if len(res.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(res.Flows))
	}
	f := res.Flows[0]
	inferred := 0
	for _, it := range f.Items {
		if !it.Inferred {
			continue
		}
		inferred++
		if it.Event.Type == event.Trans && it.Event.Receiver == 3 {
			t.Fatalf("retargeted transmission %v applied despite exhausted budget", it.Event)
		}
	}
	if inferred != 1 {
		t.Fatalf("inferred items = %d, want exactly the budgeted recv", inferred)
	}
	found := false
	for _, a := range f.Anomalies {
		if strings.Contains(a.Reason, "inference budget exhausted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing budget-exhausted anomaly; anomalies: %+v", f.Anomalies)
	}
}

// TestCheckPeerBindingRetargetsWithinBudget pins the default behavior: with
// budget to spare the same collection yields both inferences, including the
// retargeted transmission toward node 3.
func TestCheckPeerBindingRetargetsWithinBudget(t *testing.T) {
	eng, err := New(Options{Sink: 99})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Analyze(buildRetargetCollection())
	f := res.Flows[0]
	inferred := 0
	retargeted := false
	for _, it := range f.Items {
		if !it.Inferred {
			continue
		}
		inferred++
		if it.Event.Type == event.Trans && it.Event.Sender == 1 && it.Event.Receiver == 3 {
			retargeted = true
		}
	}
	if inferred != 2 {
		t.Fatalf("inferred items = %d, want 2 (recv at node 2 + retargeted trans 1->3)", inferred)
	}
	if !retargeted {
		t.Fatalf("expected an inferred retargeted transmission 1->3; items: %+v", f.Items)
	}
	for _, a := range f.Anomalies {
		if strings.Contains(a.Reason, "inference budget exhausted") {
			t.Fatalf("budget anomaly emitted with budget to spare: %+v", a)
		}
	}
}

// TestRecursionDepthCap: node 3's recv drives node 1's engine one
// prerequisite level down. With the depth cap at zero that level is refused
// with the depth anomaly; at the default cap nothing is refused.
func TestRecursionDepthCap(t *testing.T) {
	for _, depth := range []int{0, maxDepth} {
		eng, err := New(Options{Sink: 99})
		if err != nil {
			t.Fatal(err)
		}
		eng.maxDepth = depth
		f := eng.Analyze(buildRetargetCollection()).Flows[0]
		refused := false
		for _, a := range f.Anomalies {
			refused = refused || strings.Contains(a.Reason, "recursion depth exceeded")
		}
		if refused != (depth == 0) {
			t.Errorf("maxDepth %d: depth anomaly %v, want %v; anomalies: %+v", depth, refused, depth == 0, f.Anomalies)
		}
	}
}
