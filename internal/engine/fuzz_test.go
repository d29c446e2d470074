package engine

// Robustness: the engine must terminate without panicking and keep its
// structural invariants on ARBITRARY event soup — real log collections
// contain corrupt records, and the transition algorithm's recursion must be
// bounded no matter what.

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
)

// soupTypes is the event-type alphabet of the soup generators.
var soupTypes = []event.Type{event.Gen, event.Recv, event.Trans, event.AckRecvd,
	event.Timeout, event.Dup, event.Overflow, event.ServerRecv,
	event.Enqueue, event.Dequeue}

// soupEvent builds one structurally valid event of type ty between endpoints
// a and b (a != b), stamped at time at.
func soupEvent(ty event.Type, a, b event.NodeID, pkt event.PacketID, at int64) event.Event {
	e := event.Event{Type: ty, Packet: pkt, Time: at}
	switch {
	case ty == event.Gen:
		e.Node, e.Sender = pkt.Origin, pkt.Origin
	case ty == event.ServerRecv:
		e.Node, e.Sender, e.Receiver = event.Server, a, event.Server
	case ty.NodeLocal():
		e.Node, e.Sender = a, a
	case ty.SenderSide():
		e.Node, e.Sender, e.Receiver = a, a, b
	default:
		e.Node, e.Sender, e.Receiver = b, a, b
	}
	return e
}

// randomSoup generates structurally valid but semantically arbitrary events
// for one packet across a handful of nodes.
func randomSoup(rng *rand.Rand, pkt event.PacketID, nodes int, count int) []event.Event {
	var out []event.Event
	for i := 0; i < count; i++ {
		ty := soupTypes[rng.Intn(len(soupTypes))]
		a := event.NodeID(rng.Intn(nodes) + 1)
		b := event.NodeID(rng.Intn(nodes) + 1)
		for b == a {
			b = event.NodeID(rng.Intn(nodes) + 1)
		}
		out = append(out, soupEvent(ty, a, b, pkt, int64(i)))
	}
	return out
}

func fuzzOne(t *testing.T, eng *Engine, evs []event.Event, pkt event.PacketID, trial int) {
	t.Helper()
	perNode := map[event.NodeID][]event.Event{}
	for _, e := range evs {
		perNode[e.Node] = append(perNode[e.Node], e)
	}
	view := event.NewPacketView(pkt, perNode)
	f := eng.AnalyzePacket(view)
	// Invariants: every logged event either appears in the flow or is an
	// anomaly; totals add up; no event duplicated beyond its input count.
	if f.LoggedCount()+len(f.Anomalies) < len(evs) {
		t.Fatalf("trial %d: %d logged in flow + %d anomalies < %d inputs",
			trial, f.LoggedCount(), len(f.Anomalies), len(evs))
	}
	// Output is bounded: inputs plus the inference budget. (Causal-order
	// assertions only hold for protocol-consistent inputs; arbitrary soup
	// gets best-effort treatment.)
	if len(f.Items) > len(evs)+4096+16 {
		t.Fatalf("trial %d: flow exploded to %d items from %d inputs", trial, len(f.Items), len(evs))
	}
	// Per-node relative order of non-inferred items must match the input.
	perNodePos := map[event.NodeID]int{}
	for _, it := range f.Items {
		if it.Inferred {
			continue
		}
		n := it.Event.Node
		found := false
		for i := perNodePos[n]; i < len(perNode[n]); i++ {
			if perNode[n][i].Equal(it.Event) {
				perNodePos[n] = i + 1
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: flow reordered node %v's log (item %v)", trial, n, it.Event)
		}
	}
	_ = f.Path() // must not panic
	_ = f.HasLoop()
}

// soupFromBytes decodes a fuzz input into structurally valid event soup:
// three bytes per event (type, endpoint, endpoint), shaped exactly like
// randomSoup's generator so the fuzzer explores the same space the soup
// tests sample.
func soupFromBytes(data []byte) []event.Event {
	pkt := event.PacketID{Origin: 1, Seq: 1}
	if len(data) > 768 {
		data = data[:768] // bound per-input work
	}
	var out []event.Event
	for i := 0; i+2 < len(data); i += 3 {
		ty := soupTypes[int(data[i])%len(soupTypes)]
		a := event.NodeID(int(data[i+1])%4 + 1)
		b := event.NodeID(int(data[i+2])%4 + 1)
		if b == a {
			b = a%4 + 1
		}
		out = append(out, soupEvent(ty, a, b, pkt, int64(i)))
	}
	return out
}

// FuzzEngine feeds arbitrary event soup through the walk and requires
// fuzzOne's invariants: no panic, every node's log order embedded in the flow
// as a subsequence, output within the inference budget. Crashers found by
// `go test -fuzz=FuzzEngine` are pinned under testdata/fuzz and replayed by
// every normal test run.
func FuzzEngine(f *testing.F) {
	// Seeds: a clean relay, a routing loop with an origin revisit, and soup.
	f.Add([]byte{0, 1, 1, 2, 1, 2, 1, 1, 2, 3, 1, 2, 2, 2, 3, 1, 2, 3})
	f.Add([]byte{0, 1, 1, 2, 1, 2, 1, 1, 2, 2, 2, 1, 1, 2, 1, 2, 1, 3, 1, 3, 1})
	f.Add([]byte{9, 3, 3, 5, 2, 1, 7, 1, 4, 4, 2, 2, 6, 1, 3, 3, 2, 4, 8, 1, 1})
	eng, err := New(Options{Protocol: fsm.DefaultCTP(), Sink: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if evs := soupFromBytes(data); len(evs) > 0 {
			fuzzOne(t, eng, evs, event.PacketID{Origin: 1, Seq: 1}, 0)
		}
	})
}

func TestEngineSurvivesRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pkt := event.PacketID{Origin: 1, Seq: 1}
	for _, opts := range []Options{
		{Protocol: fsm.DefaultCTP(), Sink: 3},
		{Protocol: fsm.TableII(), Sink: 3},
		{Protocol: fsm.Dissemination(), Sink: 3, Group: []event.NodeID{1, 2, 3, 4}},
	} {
		eng, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 400; trial++ {
			evs := randomSoup(rng, pkt, 5, 5+rng.Intn(40))
			fuzzOne(t, eng, evs, pkt, trial)
		}
	}
}

func TestExtendedEngineSurvivesRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	pkt := event.PacketID{Origin: 2, Seq: 9}
	eng, err := New(Options{Protocol: fsm.ExtendedCTP(), Sink: 3})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		evs := randomSoup(rng, pkt, 4, 5+rng.Intn(40))
		fuzzOne(t, eng, evs, pkt, trial)
	}
}

func TestAblatedEngineSurvivesRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pkt := event.PacketID{Origin: 1, Seq: 1}
	for _, opts := range []Options{
		{Protocol: fsm.DefaultCTP(), Sink: 3, DisableIntra: true},
		{Protocol: fsm.DefaultCTP(), Sink: 3, DisableInter: true},
		{Protocol: fsm.DefaultCTP(), Sink: 3, DisableIntra: true, DisableInter: true},
	} {
		eng, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 150; trial++ {
			evs := randomSoup(rng, pkt, 5, 5+rng.Intn(30))
			fuzzOne(t, eng, evs, pkt, trial)
		}
	}
}

// TestEngineExtendedQueueFlow checks the happy path of the extended event
// set: a lossless flow with queue events infers nothing, and a flow missing
// its queue records infers them.
func TestEngineExtendedQueueFlow(t *testing.T) {
	pkt := event.PacketID{Origin: 1, Seq: 1}
	eng, err := New(Options{Protocol: fsm.ExtendedCTP(), Sink: 3})
	if err != nil {
		t.Fatal(err)
	}
	full := []event.Event{
		{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt},
		{Node: 1, Type: event.Enqueue, Sender: 1, Packet: pkt},
		{Node: 1, Type: event.Dequeue, Sender: 1, Packet: pkt},
		{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 1, Type: event.AckRecvd, Sender: 1, Receiver: 2, Packet: pkt},
	}
	fullPer := map[event.NodeID][]event.Event{}
	for _, e := range full {
		fullPer[e.Node] = append(fullPer[e.Node], e)
	}
	f := eng.AnalyzePacket(event.NewPacketView(pkt, fullPer))
	if f.InferredCount() != 0 || len(f.Anomalies) != 0 {
		t.Fatalf("lossless extended flow inferred %d / anomalies %v: %s",
			f.InferredCount(), f.Anomalies, f)
	}
	// Drop the queue records: the engine must infer [enq], [deq].
	lossy := []event.Event{full[0], full[3], full[4], full[5]}
	lossyPer := map[event.NodeID][]event.Event{}
	for _, e := range lossy {
		lossyPer[e.Node] = append(lossyPer[e.Node], e)
	}
	f2 := eng.AnalyzePacket(event.NewPacketView(pkt, lossyPer))
	tru := true
	if !f2.Contains(event.Key{Type: event.Enqueue, Sender: 1, Packet: pkt}, &tru) ||
		!f2.Contains(event.Key{Type: event.Dequeue, Sender: 1, Packet: pkt}, &tru) {
		t.Errorf("queue events not inferred: %s", f2)
	}
	var v flow.Visit
	var ok bool
	if v, ok = f2.LastVisit(2); !ok || v.State != fsm.StateReceived {
		t.Errorf("receiver visit = %+v", v)
	}
}
