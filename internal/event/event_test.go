package event

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNodeIDString(t *testing.T) {
	cases := []struct {
		n    NodeID
		want string
	}{
		{NoNode, "-"},
		{Server, "server"},
		{1, "1"},
		{1200, "1200"},
	}
	for _, c := range cases {
		if got := c.n.String(); got != c.want {
			t.Errorf("NodeID(%d).String() = %q, want %q", uint32(c.n), got, c.want)
		}
	}
}

func TestParseNodeIDRoundTrip(t *testing.T) {
	for _, n := range []NodeID{NoNode, Server, 1, 7, 65535, 1199} {
		got, err := ParseNodeID(n.String())
		if err != nil {
			t.Fatalf("ParseNodeID(%q): %v", n.String(), err)
		}
		if got != n {
			t.Errorf("round trip %v -> %v", n, got)
		}
	}
}

func TestParseNodeIDErrors(t *testing.T) {
	for _, s := range []string{"", "x", "-5", "1.2", "18446744073709551616"} {
		if _, err := ParseNodeID(s); err == nil {
			t.Errorf("ParseNodeID(%q): expected error", s)
		}
	}
}

func TestPacketIDRoundTrip(t *testing.T) {
	ids := []PacketID{
		{Origin: 1, Seq: 0},
		{Origin: 42, Seq: 99999},
		{Origin: Server, Seq: 7},
	}
	for _, id := range ids {
		got, err := ParsePacketID(id.String())
		if err != nil {
			t.Fatalf("ParsePacketID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("round trip %v -> %v", id, got)
		}
	}
}

func TestParsePacketIDErrors(t *testing.T) {
	for _, s := range []string{"", "1", "1:", ":2", "1:x", "x:2"} {
		if _, err := ParsePacketID(s); err == nil {
			t.Errorf("ParsePacketID(%q): expected error", s)
		}
	}
}

func TestTypeStringParseRoundTrip(t *testing.T) {
	for ty := Gen; ty < numTypes; ty++ {
		got, err := ParseType(ty.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", ty.String(), err)
		}
		if got != ty {
			t.Errorf("round trip %v -> %v", ty, got)
		}
	}
}

func TestParseTypeRejectsInvalid(t *testing.T) {
	for _, s := range []string{"", "invalid", "TRANS", "ack recvd"} {
		if _, err := ParseType(s); err == nil {
			t.Errorf("ParseType(%q): expected error", s)
		}
	}
}

func TestTypeSenderSide(t *testing.T) {
	senderSide := map[Type]bool{
		Trans: true, AckRecvd: true, Timeout: true,
		Gen: false, Recv: false, Overflow: false, Dup: false, ServerRecv: false,
	}
	for ty, want := range senderSide {
		if got := ty.SenderSide(); got != want {
			t.Errorf("%v.SenderSide() = %v, want %v", ty, got, want)
		}
	}
}

func TestTypePacketScoped(t *testing.T) {
	if ServerDown.PacketScoped() || ServerUp.PacketScoped() {
		t.Error("server up/down must not be packet scoped")
	}
	for _, ty := range []Type{Gen, Recv, Trans, AckRecvd, Dup, Overflow, Timeout, ServerRecv} {
		if !ty.PacketScoped() {
			t.Errorf("%v should be packet scoped", ty)
		}
	}
	if Invalid.PacketScoped() {
		t.Error("Invalid must not be packet scoped")
	}
}

func TestEventStringPaperNotation(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 5}
	e := Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt}
	if got := e.String(); got != "1-2 trans" {
		t.Errorf("String() = %q, want %q", got, "1-2 trans")
	}
	e2 := Event{Node: 2, Type: Recv, Sender: 1, Receiver: 2, Packet: pkt}
	if got := e2.String(); got != "1-2 recv" {
		t.Errorf("String() = %q, want %q", got, "1-2 recv")
	}
	g := Event{Node: 1, Type: Gen, Sender: 1, Packet: pkt}
	if got := g.String(); got != "1 gen" {
		t.Errorf("String() = %q, want %q", got, "1 gen")
	}
	d := Event{Node: Server, Type: ServerDown}
	if got := d.String(); got != "server sdown" {
		t.Errorf("String() = %q, want %q", got, "server sdown")
	}
}

func TestEventValidate(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 5}
	valid := []Event{
		{Node: 1, Type: Gen, Sender: 1, Packet: pkt},
		{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 1, Type: AckRecvd, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 1, Type: Timeout, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 2, Type: Recv, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 2, Type: Dup, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: 2, Type: Overflow, Sender: 1, Receiver: 2, Packet: pkt},
		{Node: Server, Type: ServerRecv, Sender: 9, Receiver: Server, Packet: pkt},
		{Node: Server, Type: ServerDown},
		{Node: Server, Type: ServerUp},
	}
	for _, e := range valid {
		if err := e.Validate(); err != nil {
			t.Errorf("Validate(%v): unexpected error %v", e, err)
		}
	}
	invalid := []Event{
		{}, // zero type
		{Node: 2, Type: Gen, Sender: 1, Packet: pkt},        // gen on wrong node
		{Node: 1, Type: Gen, Sender: 1},                     // gen packet origin mismatch
		{Node: 2, Type: Trans, Sender: 1, Receiver: 2},      // trans on receiver
		{Node: 1, Type: Trans, Sender: 1},                   // missing receiver
		{Node: 1, Type: Recv, Sender: 1, Receiver: 2},       // recv on sender
		{Node: 2, Type: Recv, Receiver: 2},                  // missing sender
		{Node: 3, Type: ServerRecv, Sender: 9, Receiver: 3}, // srecv off server
		{Node: 3, Type: ServerDown},                         // sdown off server
	}
	for _, e := range invalid {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate(%v): expected error", e)
		}
	}
}

func TestEventEqualIgnoresTimeAndInfo(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 5}
	a := Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 10, Info: "x"}
	b := Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 99, Info: "y"}
	if !a.Equal(b) {
		t.Error("events differing only in Time/Info should be Equal")
	}
	c := b
	c.Receiver = 3
	if a.Equal(c) {
		t.Error("events with different receivers must not be Equal")
	}
}

func TestLogAppendStampsNode(t *testing.T) {
	l := &Log{Node: 7}
	l.Append(Event{Type: Trans, Sender: 7, Receiver: 8, Packet: PacketID{Origin: 7, Seq: 1}})
	if l.At(0).Node != 7 {
		t.Errorf("Append did not stamp node: %v", l.At(0).Node)
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
}

func TestLogValidateCatchesForeignEvents(t *testing.T) {
	l := &Log{Node: 7}
	// Bypass Append's stamping to plant a foreign event.
	l.Batch().Append(Event{Node: 8, Type: Trans, Sender: 8, Receiver: 9, Packet: PacketID{Origin: 8, Seq: 1}})
	if err := l.Validate(); err == nil {
		t.Error("expected error for foreign event in log")
	}
}

func TestCollectionNodesSorted(t *testing.T) {
	c := NewCollection()
	for _, n := range []NodeID{5, 1, 3, Server, 2} {
		c.Log(n)
	}
	nodes := c.Nodes()
	want := []NodeID{1, 2, 3, 5, Server}
	if !reflect.DeepEqual(nodes, want) {
		t.Errorf("Nodes() = %v, want %v", nodes, want)
	}
}

func TestCollectionAddRoutesByNode(t *testing.T) {
	c := NewCollection()
	pkt := PacketID{Origin: 1, Seq: 1}
	c.Add(Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt})
	c.Add(Event{Node: 2, Type: Recv, Sender: 1, Receiver: 2, Packet: pkt})
	c.Add(Event{Node: 1, Type: AckRecvd, Sender: 1, Receiver: 2, Packet: pkt})
	if c.Logs[1].Len() != 2 || c.Logs[2].Len() != 1 {
		t.Fatalf("bad routing: n1=%d n2=%d", c.Logs[1].Len(), c.Logs[2].Len())
	}
	if c.TotalEvents() != 3 {
		t.Errorf("TotalEvents = %d, want 3", c.TotalEvents())
	}
}

func TestCollectionCloneIsDeep(t *testing.T) {
	c := NewCollection()
	pkt := PacketID{Origin: 1, Seq: 1}
	c.Add(Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt})
	cl := c.Clone()
	b := cl.Logs[1].Batch()
	e := b.At(0)
	e.Receiver = 9
	b.Set(0, e)
	if c.Logs[1].At(0).Receiver == 9 {
		t.Error("Clone shares event storage with original")
	}
}

func TestPartitionGroupsByPacketPreservingOrder(t *testing.T) {
	c := NewCollection()
	p1 := PacketID{Origin: 1, Seq: 1}
	p2 := PacketID{Origin: 1, Seq: 2}
	// Interleave two packets on node 1's log.
	c.Add(Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: p1, Time: 1})
	c.Add(Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: p2, Time: 2})
	c.Add(Event{Node: 1, Type: AckRecvd, Sender: 1, Receiver: 2, Packet: p1, Time: 3})
	c.Add(Event{Node: 1, Type: AckRecvd, Sender: 1, Receiver: 2, Packet: p2, Time: 4})
	c.Add(Event{Node: Server, Type: ServerDown, Time: 5})

	views, ops := Partition(c)
	if len(views) != 2 {
		t.Fatalf("got %d views, want 2", len(views))
	}
	if views[0].Packet != p1 || views[1].Packet != p2 {
		t.Fatalf("views out of order: %v, %v", views[0].Packet, views[1].Packet)
	}
	v1 := views[0].NodeEvents(1)
	if len(v1) != 2 || v1[0].Type != Trans || v1[1].Type != AckRecvd {
		t.Errorf("per-node order not preserved: %v", v1)
	}
	if len(ops) != 1 || ops[0].Type != ServerDown {
		t.Errorf("operational events: %v", ops)
	}
}

func TestPartitionOrdersViewsByOriginThenSeq(t *testing.T) {
	c := NewCollection()
	mk := func(origin NodeID, seq uint32) {
		c.Add(Event{Node: origin, Type: Gen, Sender: origin, Packet: PacketID{Origin: origin, Seq: seq}})
	}
	mk(2, 1)
	mk(1, 2)
	mk(1, 1)
	views, _ := Partition(c)
	want := []PacketID{{1, 1}, {1, 2}, {2, 1}}
	for i, v := range views {
		if v.Packet != want[i] {
			t.Errorf("view %d = %v, want %v", i, v.Packet, want[i])
		}
	}
}

func TestPacketViewHelpers(t *testing.T) {
	v := NewPacketView(PacketID{1, 1}, map[NodeID][]Event{
		3: {{Node: 3}},
		1: {{Node: 1}, {Node: 1}},
	})
	if got := v.Nodes(); !reflect.DeepEqual(got, []NodeID{1, 3}) {
		t.Errorf("Nodes() = %v", got)
	}
	if v.TotalEvents() != 3 {
		t.Errorf("TotalEvents = %d", v.TotalEvents())
	}
}

// randomEvent builds a structurally valid random event for property tests.
func randomEvent(rng *rand.Rand) Event {
	pkt := PacketID{Origin: NodeID(rng.Intn(50) + 1), Seq: uint32(rng.Intn(1000))}
	other := NodeID(rng.Intn(50) + 1)
	switch rng.Intn(8) {
	case 0:
		return Event{Node: pkt.Origin, Type: Gen, Sender: pkt.Origin, Packet: pkt, Time: rng.Int63n(1 << 40)}
	case 1:
		return Event{Node: pkt.Origin, Type: Trans, Sender: pkt.Origin, Receiver: other, Packet: pkt, Time: rng.Int63n(1 << 40)}
	case 2:
		return Event{Node: pkt.Origin, Type: AckRecvd, Sender: pkt.Origin, Receiver: other, Packet: pkt, Time: rng.Int63n(1 << 40)}
	case 3:
		return Event{Node: pkt.Origin, Type: Timeout, Sender: pkt.Origin, Receiver: other, Packet: pkt, Time: rng.Int63n(1 << 40)}
	case 4:
		return Event{Node: other, Type: Recv, Sender: pkt.Origin, Receiver: other, Packet: pkt, Time: rng.Int63n(1 << 40)}
	case 5:
		return Event{Node: other, Type: Dup, Sender: pkt.Origin, Receiver: other, Packet: pkt, Time: rng.Int63n(1 << 40)}
	case 6:
		return Event{Node: other, Type: Overflow, Sender: pkt.Origin, Receiver: other, Packet: pkt, Time: rng.Int63n(1 << 40)}
	default:
		return Event{Node: Server, Type: ServerRecv, Sender: other, Receiver: Server, Packet: pkt, Time: rng.Int63n(1 << 40)}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		e := randomEvent(rng)
		got, err := ParseEvent(FormatEvent(e))
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		return got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCodecRoundTripWithInfo(t *testing.T) {
	e := Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2,
		Packet: PacketID{Origin: 1, Seq: 3}, Time: 42, Info: "attempt=3 rssi=-71"}
	got, err := ParseEvent(FormatEvent(e))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip %+v -> %+v", e, got)
	}
}

func TestParseEventErrors(t *testing.T) {
	bad := []string{
		"",
		"1 trans",                  // too short
		"x trans 1 2 1:1 0",        // bad node
		"1 bogus 1 2 1:1 0",        // bad type
		"1 trans y 2 1:1 0",        // bad sender
		"1 trans 1 z 1:1 0",        // bad receiver
		"1 trans 1 2 1;1 0",        // bad packet
		"1 trans 1 2 1:1 notatime", // bad time
	}
	for _, line := range bad {
		if _, err := ParseEvent(line); err == nil {
			t.Errorf("ParseEvent(%q): expected error", line)
		}
	}
}

func TestWriteReadCollectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewCollection()
	for i := 0; i < 300; i++ {
		c.Add(randomEvent(rng))
	}
	var buf stringsBuilderCloser
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollection(newStringReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents() != c.TotalEvents() {
		t.Fatalf("event count: got %d want %d", got.TotalEvents(), c.TotalEvents())
	}
	for _, n := range c.Nodes() {
		a, b := c.Logs[n].Events(), got.Logs[n].Events()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("node %v logs differ", n)
		}
	}
}

func TestNewEventTypesValidation(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 5}
	valid := []Event{
		{Node: 3, Type: Enqueue, Sender: 3, Packet: pkt},
		{Node: 3, Type: Dequeue, Sender: 3, Packet: pkt},
		{Node: 1, Type: Bcast, Sender: 1, Packet: pkt},
		{Node: 2, Type: Resp, Sender: 2, Receiver: 1, Packet: pkt},
		{Node: 1, Type: Done, Sender: 1, Packet: pkt},
	}
	for _, e := range valid {
		if err := e.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", e, err)
		}
	}
	invalid := []Event{
		{Node: 4, Type: Enqueue, Sender: 3, Packet: pkt},           // off-node
		{Node: 4, Type: Bcast, Sender: 1, Packet: pkt},             // off-node
		{Node: 2, Type: Resp, Sender: 2, Packet: pkt},              // missing receiver
		{Node: 1, Type: Resp, Sender: 2, Receiver: 1, Packet: pkt}, // resp on receiver
	}
	for _, e := range invalid {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate(%v): expected error", e)
		}
	}
}

func TestNewEventTypesRoles(t *testing.T) {
	for _, ty := range []Type{Enqueue, Dequeue, Bcast, Done, Gen} {
		if !ty.NodeLocal() {
			t.Errorf("%v should be node-local", ty)
		}
		if ty.SenderSide() {
			t.Errorf("%v should not be sender-side", ty)
		}
	}
	if !Resp.SenderSide() || Resp.NodeLocal() {
		t.Error("resp should be sender-side, not node-local")
	}
}

func TestNewEventTypesStringNotation(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 5}
	b := Event{Node: 1, Type: Bcast, Sender: 1, Packet: pkt}
	if got := b.String(); got != "1 bcast" {
		t.Errorf("String() = %q", got)
	}
	r := Event{Node: 2, Type: Resp, Sender: 2, Receiver: 1, Packet: pkt}
	if got := r.String(); got != "2-1 resp" {
		t.Errorf("String() = %q", got)
	}
	q := Event{Node: 3, Type: Enqueue, Sender: 3, Packet: pkt}
	if got := q.String(); got != "3 enq" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewEventTypesCodecRoundTrip(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 5}
	events := []Event{
		{Node: 3, Type: Enqueue, Sender: 3, Packet: pkt, Time: 7},
		{Node: 3, Type: Dequeue, Sender: 3, Packet: pkt, Time: 8},
		{Node: 1, Type: Bcast, Sender: 1, Packet: pkt, Time: 9},
		{Node: 2, Type: Resp, Sender: 2, Receiver: 1, Packet: pkt, Time: 10},
		{Node: 1, Type: Done, Sender: 1, Packet: pkt, Time: 11},
	}
	for _, e := range events {
		got, err := ParseEvent(FormatEvent(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != e {
			t.Errorf("text round trip %v -> %v", e, got)
		}
	}
}
