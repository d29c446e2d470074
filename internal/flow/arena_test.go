package flow

import (
	"reflect"
	"testing"

	"repro/internal/event"
)

func arenaItem(seq uint32, inferred bool) Item {
	return Item{
		Event: event.Event{
			Node: 1, Type: event.Trans, Sender: 1, Receiver: 2,
			Packet: event.PacketID{Origin: 1, Seq: seq},
		},
		Inferred: inferred,
	}
}

// TestArenaBuildMatchesStandalone pins the contract the engine relies on:
// Build through an arena and Build through a nil arena produce deeply equal
// flows, including nil-ness of empty slices and the O(1) counters.
func TestArenaBuildMatchesStandalone(t *testing.T) {
	items := []Item{arenaItem(1, false), arenaItem(1, true), arenaItem(1, true)}
	visits := []Visit{{Node: 1, Index: 0, State: "Sent", LastPos: 2}}
	anoms := []Anomaly{{Event: items[0].Event, Reason: "test"}}
	pkt := event.PacketID{Origin: 1, Seq: 1}

	a := NewArena(Sizing{})
	got := a.Build(pkt, items, visits, anoms, 2)
	want := (*Arena)(nil).Build(pkt, items, visits, anoms, 2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("arena flow differs from standalone:\n%+v\nvs\n%+v", got, want)
	}
	if got.InferredCount() != 2 || got.LoggedCount() != 1 {
		t.Errorf("counts = %d inferred / %d logged, want 2/1", got.InferredCount(), got.LoggedCount())
	}

	empty := a.Build(pkt, nil, nil, nil, 0)
	emptyStandalone := (*Arena)(nil).Build(pkt, nil, nil, nil, 0)
	if !reflect.DeepEqual(empty, emptyStandalone) {
		t.Error("empty arena flow differs from empty standalone flow")
	}
	if empty.Items != nil || empty.Visits != nil || empty.Anomalies != nil {
		t.Error("empty flow slices must be nil")
	}
}

// TestArenaSpansAreIsolated verifies that consecutive commits never alias:
// each span's cap is clamped, so appending to one flow's Items copies out
// instead of clobbering its neighbor in the chunk.
func TestArenaSpansAreIsolated(t *testing.T) {
	a := NewArena(Sizing{Items: 1024})
	f1 := a.Build(event.PacketID{Origin: 1, Seq: 1}, []Item{arenaItem(1, false)}, nil, nil, 0)
	f2 := a.Build(event.PacketID{Origin: 1, Seq: 2}, []Item{arenaItem(2, false)}, nil, nil, 0)
	if cap(f1.Items) != len(f1.Items) {
		t.Fatalf("span cap %d != len %d: append would clobber the next flow", cap(f1.Items), len(f1.Items))
	}
	f1.Append(arenaItem(1, true))
	if f2.Items[0].Event.Packet.Seq != 2 {
		t.Error("appending to f1 corrupted f2's span")
	}
	if f1.InferredCount() != 1 {
		t.Errorf("post-append inferred = %d, want 1", f1.InferredCount())
	}
}

// TestArenaChunkGrowth commits far more than the sizing hint and checks every
// span survives intact — the "corrected by chunking" half of the contract —
// including one oversized commit that exceeds any single chunk.
func TestArenaChunkGrowth(t *testing.T) {
	a := NewArena(Sizing{Flows: 2, Items: 4, Visits: 2, Anomalies: 1})
	var flows []*Flow
	for i := 0; i < 500; i++ {
		n := i%5 + 1
		items := make([]Item, n)
		for j := range items {
			items[j] = arenaItem(uint32(i), j%2 == 1)
		}
		flows = append(flows, a.Build(event.PacketID{Origin: 3, Seq: uint32(i)}, items, nil, nil, n/2))
	}
	big := make([]Item, 10_000)
	for j := range big {
		big[j] = arenaItem(999, false)
	}
	flows = append(flows, a.Build(event.PacketID{Origin: 3, Seq: 999}, big, nil, nil, 0))
	for i, f := range flows[:500] {
		if len(f.Items) != i%5+1 {
			t.Fatalf("flow %d: len = %d, want %d", i, len(f.Items), i%5+1)
		}
		for _, it := range f.Items {
			if it.Event.Packet.Seq != uint32(i) {
				t.Fatalf("flow %d holds a foreign item (seq %d)", i, it.Event.Packet.Seq)
			}
		}
		if f.InferredCount() != (i%5+1)/2 {
			t.Fatalf("flow %d: inferred = %d, want %d", i, f.InferredCount(), (i%5+1)/2)
		}
	}
	if len(flows[500].Items) != 10_000 {
		t.Fatalf("oversized commit len = %d", len(flows[500].Items))
	}
}

// TestArenaResetRecycles pins the discard path's arena: after Reset the next
// Build lands on the same memory, a flow larger than the default chunk gets
// a chunk of its own that later builds reuse, and a recycled slot reads
// exactly like a fresh one — an empty flow built over a full one still has
// nil slices and zero counters — with nothing allocated once warm.
func TestArenaResetRecycles(t *testing.T) {
	a := NewArena(Sizing{})
	items := []Item{arenaItem(1, false), arenaItem(1, true)}
	visits := []Visit{{Node: 1, State: "Sent"}}
	anoms := []Anomaly{{Event: items[0].Event, Reason: "test"}}
	pkt := event.PacketID{Origin: 1, Seq: 1}
	first := a.Build(pkt, items, visits, anoms, 1)
	a.Reset()
	empty := a.Build(pkt, nil, nil, nil, 0)
	if empty != first {
		t.Fatal("Build after Reset did not reuse the arena's first flow slot")
	}
	if want := (*Arena)(nil).Build(pkt, nil, nil, nil, 0); !reflect.DeepEqual(empty, want) {
		t.Errorf("empty flow over a recycled slot = %+v, want %+v", empty, want)
	}
	a.Reset()

	big := make([]Item, 1000) // the default items chunk is 256
	for j := range big {
		big[j] = arenaItem(7, j%3 == 0)
	}
	f := a.Build(pkt, big, visits, nil, 334)
	if want := (*Arena)(nil).Build(pkt, big, visits, nil, 334); !reflect.DeepEqual(f, want) {
		t.Fatal("oversized flow differs from its standalone build")
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(20, func() {
		a.Build(pkt, big, visits, anoms, 334)
		a.Reset()
	}); allocs != 0 {
		t.Errorf("warm build+reset allocates %v times, want 0", allocs)
	}
}

// TestInferredCountHealsDirectMutation covers flows assembled without Append:
// the counter is rebuilt the first time the cached length disagrees.
func TestInferredCountHealsDirectMutation(t *testing.T) {
	f := &Flow{Packet: event.PacketID{Origin: 1, Seq: 1}}
	f.Items = []Item{arenaItem(1, true), arenaItem(1, false), arenaItem(1, true)}
	if f.InferredCount() != 2 {
		t.Errorf("literal-built inferred = %d, want 2", f.InferredCount())
	}
	f.Items = append(f.Items, arenaItem(1, true))
	if f.InferredCount() != 3 {
		t.Errorf("post-mutation inferred = %d, want 3", f.InferredCount())
	}
	if f.LoggedCount() != 1 {
		t.Errorf("logged = %d, want 1", f.LoggedCount())
	}
}
