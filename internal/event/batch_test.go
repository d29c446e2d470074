package event

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// randomNodeEvent is randomEvent logged at node n: a batch holds one node's
// rows.
func randomNodeEvent(rng *rand.Rand, n NodeID) Event {
	e := randomEvent(rng)
	e.Node = n
	return e
}

func TestBatchAppendAtRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b Batch
	var want []Event
	for i := 0; i < 200; i++ {
		e := randomNodeEvent(rng, 14)
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
		b.Append(randomNodeEvent(rng, 3))
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
		b.Append(randomNodeEvent(rng, 3)) // randomEvent never sets Info
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
	b.Append(Event{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 4}, Time: 3})
	b.Resize(3)
	pkt := PacketID{Origin: 1, Seq: 5}
	e := Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: 9, Info: "i"}
	b.Set(1, e)
	if got := b.At(1); got != e {
		t.Fatalf("At(1) = %+v, want %+v", got, e)
	}
	if got, want := b.At(0), (Event{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 4}, Time: 3}); got != want {
		t.Errorf("untouched row 0 = %+v, want %+v", got, want)
	}
	if got := b.At(2); got != (Event{Node: 1}) {
		t.Errorf("untouched row 2 not zero: %+v", got)
	}
}

// TestBatchRefusesForeignNode pins the one-node contract: a batch that holds
// rows of one node refuses, from Append and from Set, an event of another,
// and names both nodes; an empty batch takes the node of its first row.
func TestBatchRefusesForeignNode(t *testing.T) {
	var b Batch
	b.Append(Event{Node: 4, Type: Gen, Sender: 4, Packet: PacketID{Origin: 4, Seq: 1}})
	foreign := Event{Node: 9, Type: Gen, Sender: 9, Packet: PacketID{Origin: 9, Seq: 1}}
	for name, f := range map[string]func(){
		"Append": func() { b.Append(foreign) },
		"Set":    func() { b.Set(0, foreign) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "node 9") || !strings.Contains(msg, "node 4") {
					t.Errorf("panic %q, want one naming nodes 9 and 4", msg)
				}
			}()
			f()
		})
	}
	if b.Len() != 1 || b.At(0).Node != 4 || b.At(0).Packet.Origin != 4 {
		t.Errorf("refused rows changed the batch: %+v", b.Events())
	}
	b.Reset()
	b.Append(foreign)
	if b.Node(0) != 9 {
		t.Errorf("emptied batch took node %v, want 9", b.Node(0))
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

// checkPartition compares Partition(c) with the reference oracle — the same
// views in (origin, seq) order, each with the same per-node events, and the
// same operational events — and checks the span and arena layout invariants.
func checkPartition(t *testing.T, c *Collection) []*PacketView {
	t.Helper()
	want, _ := referencePartition(c)
	views, ops := Partition(c)
	if len(views) != len(want) {
		t.Fatalf("%d views, want %d", len(views), len(want))
	}
	for i, v := range views {
		if i > 0 && !views[i-1].Packet.Less(v.Packet) {
			t.Fatalf("view %d (%v) does not sort after view %d (%v)", i, v.Packet, i-1, views[i-1].Packet)
		}
		if !reflect.DeepEqual(v.PerNodeEvents(), want[v.Packet]) {
			t.Fatalf("view %v differs from reference", v.Packet)
		}
	}
	if wantOps := OperationalEvents(c); !reflect.DeepEqual(ops, wantOps) {
		t.Fatalf("operational events %v, want %v", ops, wantOps)
	}
	checkSpanInvariants(t, c, views)
	return views
}

// checkSpanInvariants checks what consumers rely on (non-empty spans, one per
// node, ascending by node, holding that node's rows of that packet) and the
// arena layout: rows in view order, a view's spans back to back, views[i]'s
// rows ending where views[i+1]'s begin, nothing before the first or after
// the last. The arena stores no node or packet, so each span's events, as
// EventAt gives them, must be the source log's rows about the view's packet,
// in log order: every field, node and packet included.
func checkSpanInvariants(t *testing.T, c *Collection, views []*PacketView) {
	t.Helper()
	source := make(map[NodeID]map[PacketID][]Event)
	for n, l := range c.Logs {
		source[n] = make(map[PacketID][]Event)
		for i := 0; i < l.Len(); i++ {
			if e := l.At(i); e.Type.PacketScoped() {
				source[n][e.Packet] = append(source[n][e.Packet], e)
			}
		}
	}
	next := int32(0) // where the next span must start
	for _, v := range views {
		spans := v.Spans()
		if len(spans) == 0 {
			t.Fatalf("view %v has no spans", v.Packet)
		}
		if v.rows != views[0].rows {
			t.Fatalf("view %v is not on the shared arena", v.Packet)
		}
		for i, sp := range spans {
			if sp.Start >= sp.End {
				t.Fatalf("view %v: empty span for node %v", v.Packet, sp.Node)
			}
			if i > 0 && spans[i-1].Node >= sp.Node {
				t.Fatalf("view %v: spans not ascending by node", v.Packet)
			}
			if sp.Start != next {
				t.Fatalf("view %v: span for node %v starts at row %d, previous rows end at %d", v.Packet, sp.Node, sp.Start, next)
			}
			next = sp.End
			want := source[sp.Node][v.Packet]
			if len(want) != int(sp.End-sp.Start) {
				t.Fatalf("view %v: node %v's span holds %d rows, its log %d", v.Packet, sp.Node, sp.End-sp.Start, len(want))
			}
			for r := sp.Start; r < sp.End; r++ {
				if e := v.EventAt(sp.Node, int(r)); e != want[r-sp.Start] {
					t.Fatalf("view %v: row %d is %v info %q, node %v's log row %v info %q",
						v.Packet, r, e, e.Info, sp.Node, want[r-sp.Start], want[r-sp.Start].Info)
				}
			}
		}
	}
	if len(views) > 0 && int(next) != views[0].rows.len() {
		t.Fatalf("views cover %d arena rows of %d", next, views[0].rows.len())
	}
}

// sameArena names the first arena column (or the Info table) in which got
// and want differ, or returns "".
func sameArena(got, want *viewArena) string {
	switch {
	case !slices.Equal(got.typ, want.typ):
		return "typ"
	case !slices.Equal(got.link, want.link):
		return "link"
	case !slices.Equal(got.time, want.time):
		return "time"
	case !maps.Equal(got.info, want.info):
		return "info"
	}
	return ""
}

func TestPartitionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkPartition(t, buildRandomCollection(seed, 2000))
	}
}

func TestPartitionSpanInvariants(t *testing.T) {
	c := buildRandomCollection(9, 3000)
	views, _ := Partition(c)
	checkSpanInvariants(t, c, views)
}

func collectionOf(evs ...Event) *Collection {
	c := NewCollection()
	for _, e := range evs {
		c.Add(e)
	}
	return c
}

// TestPartitionKeyShapes covers the inputs the radix passes branch on: which
// key bytes vary decides which passes run.
func TestPartitionKeyShapes(t *testing.T) {
	ev := func(node, origin NodeID, seq uint32, time int64) Event {
		return Event{Node: node, Type: Recv, Sender: origin, Receiver: node, Packet: PacketID{Origin: origin, Seq: seq}, Time: time}
	}
	t.Run("every key byte varies", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		c := NewCollection()
		for i := 0; i < 3000; i++ {
			origin := NodeID(1<<24 + rng.Intn(1<<31)) // all four origin bytes in use
			seq := rng.Uint32()
			if i%5 == 0 {
				seq = 0xFFFFFFFF
			}
			// A few rows per packet at a few nodes, so views have more
			// than one span.
			for k := 0; k < 1+rng.Intn(4); k++ {
				c.Add(ev(NodeID(1+rng.Intn(6)), origin, seq, rng.Int63n(1<<40)))
			}
		}
		checkPartition(t, c)
	})
	t.Run("single packet", func(t *testing.T) {
		// No key byte varies, so no pass runs.
		views := checkPartition(t, collectionOf(ev(3, 7, 9, 1), ev(1, 7, 9, 2), ev(3, 7, 9, 3), ev(2, 7, 9, 4)))
		if len(views) != 1 || views[0].NodeCount() != 3 {
			t.Fatalf("got %d views, want one view with three spans", len(views))
		}
	})
	t.Run("empty", func(t *testing.T) {
		if views := checkPartition(t, NewCollection()); len(views) != 0 {
			t.Fatalf("empty collection gave %d views", len(views))
		}
	})
	t.Run("operational only", func(t *testing.T) {
		c := collectionOf(
			Event{Node: Server, Type: ServerDown, Time: 50},
			Event{Node: Server, Type: ServerUp, Time: 20},
			Event{Node: Server, Type: ServerDown, Time: 70})
		if views := checkPartition(t, c); len(views) != 0 {
			t.Fatalf("operational-only collection gave %d views", len(views))
		}
	})
	t.Run("one node", func(t *testing.T) {
		views := checkPartition(t, collectionOf(ev(4, 2, 300, 1), ev(4, 1, 2, 2), ev(4, 2, 1, 3), ev(4, 1, 2, 4)))
		if len(views) != 3 {
			t.Fatalf("got %d views, want 3", len(views))
		}
	})
	t.Run("rows split by other packets", func(t *testing.T) {
		// Packet 1:1's rows at node 5 are separated by 1:2's in the log;
		// they still form one span, in log order.
		views := checkPartition(t, collectionOf(
			ev(5, 1, 1, 10), ev(5, 1, 2, 11), ev(5, 1, 1, 12), ev(5, 1, 2, 13), ev(5, 1, 1, 14),
			ev(6, 1, 2, 15), ev(6, 1, 1, 16)))
		got := views[0].NodeEvents(5)
		if len(views[0].Spans()) != 2 || len(got) != 3 || got[0].Time != 10 || got[1].Time != 12 || got[2].Time != 14 {
			t.Fatalf("packet 1:1 at node 5: %d spans, events %v", len(views[0].Spans()), got)
		}
	})
	t.Run("snapshot-mapped source", func(t *testing.T) {
		s, err := parseSnapshotData(snapImage(t, snapTestCollection(43, 1500)))
		if err != nil {
			t.Fatal(err)
		}
		c := s.Collection()
		if n := c.Nodes()[0]; !c.Logs[n].Batch().ReadOnly() {
			t.Fatal("snapshot collection is not read-only")
		}
		checkPartition(t, c)
	})
}

// TestPartitionItemBudget builds keys whose compressed bits and row number
// fill an item exactly (64 bits) and overflow it by one (65): the top
// compressed bit is held in the items in the first case and read from the
// rows' own keys in the second. Packets that differ only in that bit, or
// only in the lowest, must still come apart, in order, through Partition,
// its helpers and a PendingStore retire.
func TestPartitionItemBudget(t *testing.T) {
	const rows = 40 // 6 row-number bits
	for _, budget := range []int{64, 65} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			cbits := budget - bits.Len(rows)
			top := uint64(1) << (cbits - 1)
			// Bit 63 is set in every key, so exactly the low cbits vary. In
			// key order x and top|x are neighbours that differ only in the
			// top bit, and 0 and 1, top|x and top|x|1 only in the lowest.
			x := 0x5A5A5A5A5A5A5A5A & (top - 1)
			keys := []uint64{top | x, 0, top<<1 - 1, 1, x, top | x | 1}
			rng := rand.New(rand.NewSource(int64(budget)))
			c := NewCollection()
			for i := 0; i < rows; i++ {
				k := 1<<63 | keys[i%len(keys)]
				c.Add(Event{Node: NodeID(1 + rng.Intn(4)), Type: Recv, Sender: 9, Receiver: 2,
					Packet: PacketID{Origin: NodeID(k >> 32), Seq: uint32(k)}, Time: int64(i)})
			}
			var p partitioner
			p.keyBits(top<<1-1, rows)
			if got := int(p.cbits + p.rbits); got != budget {
				t.Fatalf("the keys take %d item bits, want %d", got, budget)
			}
			if views := checkPartition(t, c); len(views) != len(keys) {
				t.Fatalf("%d views, want %d", len(views), len(keys))
			}
			for _, helpers := range []int{2, 3} {
				samePartition(t, c, helpers)
			}
			ps := NewPendingStore(0)
			for _, n := range c.Nodes() {
				b := c.Logs[n].Batch()
				ps.AppendRows(n, b, 0, b.Len())
			}
			var w Window
			sameViews(t, 0, ps.Retire(&w, 0, true), collected(c))
		})
	}
}

func TestCheckArenaRows(t *testing.T) {
	checkArenaRows(0)
	checkArenaRows(math.MaxInt32)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2147483648 rows") || !strings.Contains(msg, "2147483647") || !strings.Contains(msg, "windows") {
			t.Fatalf("panic %q does not name the count, the limit and the windowed paths", msg)
		}
	}()
	checkArenaRows(math.MaxInt32 + 1)
	t.Fatal("no panic above the limit")
}

// FuzzPartition decodes arbitrary bytes as a binary log and holds Partition
// to the reference on whatever collection comes out, and the partition on
// 1 + workers%8 helpers to Partition.
func FuzzPartition(f *testing.F) {
	one := Event{Node: 2, Type: Recv, Sender: 1, Receiver: 2, Packet: PacketID{Origin: 1, Seq: 7}, Time: 9}
	wide := one
	wide.Packet = PacketID{Origin: 0xFFFFFFFF, Seq: 0xFFFFFFFF} // with one: every key byte varies
	for i, c := range []*Collection{
		buildRandomCollection(51, 300),
		buildInfoCollection(52, 200),
		NewCollection(),
		collectionOf(one, one),
		collectionOf(one, wide),
		collectionOf(Event{Node: Server, Type: ServerDown, Time: 5}),
	} {
		var buf bytes.Buffer
		if err := WriteCollectionBinary(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		c, err := ReadCollectionBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkPartition(t, c)
		samePartition(t, c, 1+int(workers%8))
	})
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

// TestPartitionAllocsAreConstant pins what sort-then-slice buys: a fixed
// number of allocations (the sort's columns, the arena's, the span and view
// arenas, the operational slice), not one per view or per node.
func TestPartitionAllocsAreConstant(t *testing.T) {
	for _, events := range []int{2000, 20000} {
		c := buildRandomCollection(7, events)
		if allocs := testing.AllocsPerRun(5, func() { Partition(c) }); allocs > 32 {
			t.Errorf("Partition of %d events made %.0f allocations, want at most 32", events, allocs)
		}
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

// TestPartitionArenaInfoRepresentation pins the shared arena's Info
// storage: an info-free collection leaves the arena's side table
// unallocated (the hot path), and packet-scoped Info lands in that table —
// the one Info representation a batch has.
func TestPartitionArenaInfoRepresentation(t *testing.T) {
	views, _ := Partition(buildRandomCollection(5, 1000))
	if arena := views[0].rows; arena.info != nil {
		t.Error("info-free partition allocated arena info storage")
	}
	views, _ = Partition(buildInfoCollection(5, 1000))
	if arena := views[0].rows; len(arena.info) == 0 {
		t.Error("info-bearing partition left the arena's info table empty")
	}
}
