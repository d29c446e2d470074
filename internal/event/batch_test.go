package event

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBatchAppendAtRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b Batch
	var want []Event
	for i := 0; i < 200; i++ {
		e := randomEvent(rng)
		if i%13 == 0 {
			e.Info = "attempt=2"
		}
		b.Append(e)
		want = append(want, e)
	}
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	for i, e := range want {
		if got := b.At(i); got != e {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, e)
		}
	}
	if !reflect.DeepEqual(b.Events(), want) {
		t.Error("Events() differs from appended sequence")
	}
}

func TestBatchColumnAccessorsMatchAt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var b Batch
	for i := 0; i < 50; i++ {
		b.Append(randomEvent(rng))
	}
	for i := 0; i < b.Len(); i++ {
		e := b.At(i)
		if b.Node(i) != e.Node || b.Type(i) != e.Type || b.Sender(i) != e.Sender ||
			b.Receiver(i) != e.Receiver || b.Packet(i) != e.Packet ||
			b.Time(i) != e.Time || b.Info(i) != e.Info {
			t.Fatalf("column accessors disagree with At(%d)", i)
		}
	}
}

func TestBatchInfoSideTableStaysNilWithoutInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var b Batch
	for i := 0; i < 100; i++ {
		b.Append(randomEvent(rng)) // randomEvent never sets Info
	}
	if b.info != nil {
		t.Error("info side table allocated despite no Info strings")
	}
	e := b.At(0)
	e.Info = "x"
	b.Set(0, e)
	if b.Info(0) != "x" {
		t.Error("Set did not store Info")
	}
	e.Info = ""
	b.Set(0, e)
	if b.Info(0) != "" {
		t.Error("Set with empty Info did not clear the side table entry")
	}
}

func TestBatchSetOverwritesRow(t *testing.T) {
	var b Batch
	b.Resize(3)
	pkt := PacketID{Origin: 1, Seq: 5}
	e := Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 9, Info: "i"}
	b.Set(1, e)
	if got := b.At(1); got != e {
		t.Fatalf("At(1) = %+v, want %+v", got, e)
	}
	if got := b.At(0); got != (Event{}) {
		t.Errorf("untouched row not zero: %+v", got)
	}
}

func TestBatchResizeTruncatesAndGrows(t *testing.T) {
	var b Batch
	b.Append(Event{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 1}})
	b.Append(Event{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 2}})
	b.Resize(1)
	if b.Len() != 1 || b.Packet(0).Seq != 1 {
		t.Fatalf("truncate kept wrong rows: len=%d", b.Len())
	}
	b.Resize(4)
	if b.Len() != 4 || b.Type(3) != Invalid {
		t.Fatal("grow did not zero-fill")
	}
}

func TestBatchCloneIsDeep(t *testing.T) {
	var b Batch
	b.Append(Event{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 1}, Info: "a"})
	cl := b.Clone()
	e := cl.At(0)
	e.Time, e.Info = 99, "b"
	cl.Set(0, e)
	if b.Time(0) == 99 || b.Info(0) != "a" {
		t.Error("Clone shares storage with original")
	}
}

func TestBatchResetKeepsCapacity(t *testing.T) {
	var b Batch
	for i := 0; i < 10; i++ {
		b.Append(Event{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: uint32(i)}, Info: "x"})
	}
	c := cap(b.typ)
	b.Reset()
	if b.Len() != 0 || cap(b.typ) != c {
		t.Errorf("Reset: len=%d cap=%d want 0/%d", b.Len(), cap(b.typ), c)
	}
	if b.Info(0) != "" || b.info != nil {
		// Info(0) would panic on columns but not on the map; check map cleared.
		t.Error("Reset did not drop the info side table")
	}
}

// buildRandomCollection creates a multi-node collection with interleaved
// packets and operational events, the partitioners' stress shape.
func buildRandomCollection(seed int64, n int) *Collection {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection()
	for i := 0; i < n; i++ {
		if i%31 == 30 {
			if i%2 == 0 {
				c.Add(Event{Node: Server, Type: ServerDown, Time: rng.Int63n(1 << 30)})
			} else {
				c.Add(Event{Node: Server, Type: ServerUp, Time: rng.Int63n(1 << 30)})
			}
			continue
		}
		c.Add(randomEvent(rng))
	}
	return c
}

// referencePartition is the pre-SoA partitioning algorithm, kept in-test as
// the behavioral oracle: group packet-scoped events per packet per node,
// preserving per-node order.
func referencePartition(c *Collection) (map[PacketID]map[NodeID][]Event, []Event) {
	views := make(map[PacketID]map[NodeID][]Event)
	var ops []Event
	for _, n := range c.Nodes() {
		l := c.Logs[n]
		for i := 0; i < l.Len(); i++ {
			e := l.At(i)
			if !e.Type.PacketScoped() {
				ops = append(ops, e)
				continue
			}
			m, ok := views[e.Packet]
			if !ok {
				m = make(map[NodeID][]Event)
				views[e.Packet] = m
			}
			m[n] = append(m[n], e)
		}
	}
	return views, ops
}

func TestPartitionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := buildRandomCollection(seed, 2000)
		want, wantOps := referencePartition(c)
		views, ops := Partition(c)
		if len(views) != len(want) {
			t.Fatalf("seed %d: %d views, want %d", seed, len(views), len(want))
		}
		for _, v := range views {
			if !reflect.DeepEqual(v.PerNodeEvents(), want[v.Packet]) {
				t.Fatalf("seed %d: view %v differs from reference", seed, v.Packet)
			}
		}
		if len(ops) != len(wantOps) {
			t.Fatalf("seed %d: %d operational events, want %d", seed, len(ops), len(wantOps))
		}
	}
}

func TestPartitionSpanInvariants(t *testing.T) {
	c := buildRandomCollection(9, 3000)
	views, _ := Partition(c)
	for _, v := range views {
		spans := v.Spans()
		if len(spans) == 0 {
			t.Fatalf("view %v has no spans", v.Packet)
		}
		for i, sp := range spans {
			if sp.Start >= sp.End {
				t.Fatalf("view %v: empty span for node %v", v.Packet, sp.Node)
			}
			if i > 0 && spans[i-1].Node >= sp.Node {
				t.Fatalf("view %v: spans not ascending by node", v.Packet)
			}
			for r := sp.Start; r < sp.End; r++ {
				if v.Batch().Node(int(r)) != sp.Node {
					t.Fatalf("view %v: row %d belongs to %v, span says %v",
						v.Packet, r, v.Batch().Node(int(r)), sp.Node)
				}
				if v.Batch().Packet(int(r)) != v.Packet {
					t.Fatalf("view %v: row %d holds foreign packet %v",
						v.Packet, r, v.Batch().Packet(int(r)))
				}
			}
		}
	}
}

func TestNewPacketViewMatchesPartitionLayout(t *testing.T) {
	c := buildRandomCollection(3, 500)
	views, _ := Partition(c)
	for _, v := range views {
		rebuilt := NewPacketView(v.Packet, v.PerNodeEvents())
		if !reflect.DeepEqual(rebuilt.PerNodeEvents(), v.PerNodeEvents()) {
			t.Fatalf("view %v: NewPacketView round trip differs", v.Packet)
		}
		got, want := rebuilt.Spans(), v.Spans()
		if len(got) != len(want) {
			t.Fatalf("view %v: %d spans, want %d", v.Packet, len(got), len(want))
		}
		for i := range got {
			if got[i].Node != want[i].Node || got[i].End-got[i].Start != want[i].End-want[i].Start {
				t.Fatalf("view %v: span %d shape differs", v.Packet, i)
			}
		}
	}
}

func TestPartitionAllocsScaleWithNodesNotPackets(t *testing.T) {
	c := buildRandomCollection(7, 20000)
	views, _ := Partition(c) // warm-up + view count
	perView := testing.AllocsPerRun(5, func() {
		Partition(c)
	}) / float64(len(views))
	// The arena design performs O(nodes + views-map) allocations total; the
	// old per-view maps cost 4-6 allocs per view. Anything under 1 alloc per
	// view proves the arena is doing its job.
	if perView > 1.0 {
		t.Errorf("Partition allocates %.2f allocs/view; arena should amortize below 1", perView)
	}
}

// buildInfoCollection is buildRandomCollection with Info strings sprinkled on
// a fraction of the packet-scoped events — the shape the text/binary log
// formats permit and the partition arenas must carry race-free.
func buildInfoCollection(seed int64, n int) *Collection {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection()
	for i := 0; i < n; i++ {
		e := randomEvent(rng)
		if i%7 == 0 {
			e.Info = FormatEvent(e) // arbitrary distinct-ish payload
		}
		c.Add(e)
	}
	return c
}

func TestPartitionPreservesInfo(t *testing.T) {
	c := buildInfoCollection(21, 2000)
	want, _ := referencePartition(c)
	views, _ := Partition(c)
	for _, v := range views {
		if !reflect.DeepEqual(v.PerNodeEvents(), want[v.Packet]) {
			t.Fatalf("view %v lost or mangled Info", v.Packet)
		}
	}
}

// TestPartitionArenaInfoRepresentation pins the shared arena's storage
// choice: an info-free collection keeps the arena's info storage entirely
// unallocated (the hot path), while any packet-scoped Info switches the arena
// to the dense column — never the lazy map.
func TestPartitionArenaInfoRepresentation(t *testing.T) {
	views, _ := Partition(buildRandomCollection(5, 1000))
	arena := views[0].Batch()
	if arena.infoCol != nil || arena.info != nil {
		t.Error("info-free partition allocated arena info storage")
	}
	views, _ = Partition(buildInfoCollection(5, 1000))
	arena = views[0].Batch()
	if arena.infoCol == nil {
		t.Error("info-bearing partition did not allocate the dense info column")
	}
	if arena.info != nil {
		t.Error("info-bearing partition populated the lazy map on the shared arena")
	}
}
