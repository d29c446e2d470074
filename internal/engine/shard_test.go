package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
)

// buildManyOriginCampaign synthesizes a campaign whose packets spread over
// many origins with very uneven per-origin volume (origin o emits ~o
// packets), so the origin-sharded distribution exercises the scheduler's
// chunk balancing, including single hot origins that dwarf the chunk target.
func buildManyOriginCampaign(origins int) *event.Collection {
	rng := rand.New(rand.NewSource(7))
	c := event.NewCollection()
	sink := event.NodeID(900)
	seq := uint32(0)
	for o := 1; o <= origins; o++ {
		origin := event.NodeID(o)
		for p := 0; p < o; p++ {
			seq++
			pkt := event.PacketID{Origin: origin, Seq: seq}
			t0 := int64(seq) * 50
			emit := func(ev event.Event) {
				if rng.Float64() > 0.25 {
					c.Add(ev)
				}
			}
			emit(event.Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt, Time: t0})
			emit(event.Event{Node: origin, Type: event.Trans, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 1})
			emit(event.Event{Node: origin, Type: event.AckRecvd, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 2})
			emit(event.Event{Node: sink, Type: event.Recv, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 3})
		}
	}
	return c
}

// TestShardedMergeDeterministic runs the origin-sharded driver concurrently
// with itself and pins every result to the serial reconstruction — the -race
// regression test for the sharded merge: worker arenas, worker-owned run
// state and the result merge must never share memory across shards.
func TestShardedMergeDeterministic(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	c := buildManyOriginCampaign(40)
	serial := eng.Analyze(c)
	if len(serial.Flows) == 0 {
		t.Fatal("degenerate campaign")
	}
	// Origins must appear in ascending packet-ID order after the merge.
	for i := 1; i < len(serial.Flows); i++ {
		a, b := serial.Flows[i-1].Packet, serial.Flows[i].Packet
		if a.Origin > b.Origin || (a.Origin == b.Origin && a.Seq >= b.Seq) {
			t.Fatalf("serial flows out of packet-ID order at %d", i)
		}
	}
	var wg sync.WaitGroup
	for _, workers := range []int{2, 3, 7, 16} {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got, _ := eng.AnalyzeDiagnosed(c, w, diagnosis.Config{Sink: 900})
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("AnalyzeDiagnosed(workers=%d) diverged from serial", w)
				}
			}(workers)
		}
	}
	wg.Wait()
}

// checkChunkInvariants asserts the originChunks contract on one output:
// chunks tile [0, len(views)) in order, every boundary is an origin boundary,
// and there are between 1 and want chunks.
func checkChunkInvariants(t *testing.T, views []*event.PacketView, chunks [][2]int, want int) {
	t.Helper()
	if len(chunks) == 0 || len(chunks) > want {
		t.Fatalf("want=%d: got %d chunks", want, len(chunks))
	}
	next := 0
	for _, ch := range chunks {
		if ch[0] != next || ch[1] <= ch[0] {
			t.Fatalf("want=%d: chunk %v does not tile (next=%d)", want, ch, next)
		}
		if ch[0] > 0 && views[ch[0]-1].Packet.Origin == views[ch[0]].Packet.Origin {
			t.Fatalf("want=%d: chunk %v splits origin %v", want, ch, views[ch[0]].Packet.Origin)
		}
		next = ch[1]
	}
	if next != len(views) {
		t.Fatalf("want=%d: chunks cover %d of %d views", want, next, len(views))
	}
}

// TestOriginChunksNeverSplitOrigins pins the sharding invariant the parallel
// path relies on: a chunk boundary always coincides with an origin boundary,
// chunks tile the view slice exactly, and every view lands in some chunk.
func TestOriginChunksNeverSplitOrigins(t *testing.T) {
	c := buildManyOriginCampaign(25)
	views, _ := event.Partition(c)
	for _, want := range []int{1, 2, 5, 13, 64, 10_000} {
		checkChunkInvariants(t, views, originChunks(views, want), want)
	}
}

// dominantCampaign builds packets for the given origins where exactly one
// origin carries heavy packets and every other origin light ones — the
// distribution the adaptive re-target in originChunks exists for.
func dominantCampaign(origins []event.NodeID, dominant event.NodeID) *event.Collection {
	c := event.NewCollection()
	sink := event.NodeID(900)
	for _, origin := range origins {
		n := 2
		if origin == dominant {
			n = 500
		}
		for p := 0; p < n; p++ {
			pkt := event.PacketID{Origin: origin, Seq: uint32(p + 1)}
			t0 := int64(origin)*100_000 + int64(p)*10
			c.Add(event.Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt, Time: t0})
			c.Add(event.Event{Node: origin, Type: event.Trans, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 1})
			c.Add(event.Event{Node: sink, Type: event.Recv, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 2})
		}
	}
	return c
}

// TestOriginChunksDominantOrigin pins the adaptive re-target contract: a
// single origin dominating the volume is isolated in its own chunk wherever
// it falls in the origin order, the origins around it still split toward
// want (the old fixed-target cut collapsed everything after a leading hot
// origin into one chunk), and a single-origin input yields exactly one chunk
// no matter how many are asked for — never-split wins over want.
func TestOriginChunksDominantOrigin(t *testing.T) {
	ids := []event.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9}
	positions := map[string]event.NodeID{"first": 1, "middle": 5, "last": 9}
	for name, dom := range positions {
		t.Run(name, func(t *testing.T) {
			views, _ := event.Partition(dominantCampaign(ids, dom))
			const want = 8
			chunks := originChunks(views, want)
			checkChunkInvariants(t, views, chunks, want)
			for _, ch := range chunks {
				lo, hi := views[ch[0]].Packet.Origin, views[ch[1]-1].Packet.Origin
				if (lo == dom || hi == dom) && lo != hi {
					t.Errorf("dominant origin %d shares chunk %v with origins %d..%d", dom, ch, lo, hi)
				}
			}
			// With the hot origin leading, the fixed-target cut produced
			// exactly two chunks (hot, then everything else swallowed); the
			// re-targeted cut keeps spreading the light origins.
			if name != "last" && len(chunks) < want/2 {
				t.Errorf("dominant-%s: only %d chunks for want=%d", name, len(chunks), want)
			}
		})
	}
	t.Run("single-origin", func(t *testing.T) {
		views, _ := event.Partition(dominantCampaign(ids[:1], ids[0]))
		for _, want := range []int{1, 2, 8, 1024} {
			chunks := originChunks(views, want)
			checkChunkInvariants(t, views, chunks, want)
			if len(chunks) != 1 {
				t.Errorf("want=%d: single origin split into %d chunks", want, len(chunks))
			}
		}
	})
}

// TestStealSchedulerCoverage drains a steal scheduler — serially with a
// rotating caller and concurrently under contention — and requires the
// handed-out ranges to tile the view slice exactly once: steals move work
// but can never duplicate or drop a view.
func TestStealSchedulerCoverage(t *testing.T) {
	c := buildManyOriginCampaign(40)
	views, _ := event.Partition(c)
	check := func(t *testing.T, got []int) {
		t.Helper()
		for i, n := range got {
			if n != 1 {
				t.Fatalf("view %d handed out %d times", i, n)
			}
		}
	}
	for _, workers := range []int{1, 3, 8} {
		t.Run("serial", func(t *testing.T) {
			s := newStealScheduler(views, workers)
			got := make([]int, len(views))
			for w, idle := 0, 0; idle < workers; w = (w + 1) % workers {
				lo, hi, ok := s.next(w)
				if !ok {
					idle++
					continue
				}
				idle = 0
				for i := lo; i < hi; i++ {
					got[i]++
				}
			}
			check(t, got)
		})
		t.Run("concurrent", func(t *testing.T) {
			s := newStealScheduler(views, workers)
			got := make([]int, len(views))
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						lo, hi, ok := s.next(w)
						if !ok {
							return
						}
						mu.Lock()
						for i := lo; i < hi; i++ {
							got[i]++
						}
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			check(t, got)
		})
	}
}

// TestStealHalfSemantics exercises the deque mechanics directly: the owner
// pops grain-bounded slices off its tail, a thief takes the head half of a
// multi-unit victim, splits a single large unit down the middle, and takes a
// single small unit whole.
func TestStealHalfSemantics(t *testing.T) {
	mk := func(units ...unit) *stealScheduler {
		s := &stealScheduler{deques: make([]stealDeque, 2), grain: 4}
		s.deques[0].units = append(s.deques[0].units, units...)
		return s
	}
	t.Run("pop-grain-from-tail", func(t *testing.T) {
		s := mk(unit{0, 100})
		lo, hi, ok := s.pop(0)
		if !ok || lo != 96 || hi != 100 {
			t.Fatalf("pop = (%d,%d,%v), want tail slice (96,100)", lo, hi, ok)
		}
		if got := s.deques[0].units; len(got) != 1 || got[0] != (unit{0, 96}) {
			t.Fatalf("owner deque after pop: %v", got)
		}
	})
	t.Run("steal-head-half-of-units", func(t *testing.T) {
		s := mk(unit{0, 10}, unit{10, 20}, unit{20, 30})
		lo, hi, ok := s.steal(1, 0)
		if !ok || lo != 16 || hi != 20 {
			t.Fatalf("steal = (%d,%d,%v), want a slice of the stolen tail unit (16,20)", lo, hi, ok)
		}
		if got := s.deques[0].units; len(got) != 1 || got[0] != (unit{20, 30}) {
			t.Fatalf("victim kept %v, want its tail unit {20,30}", got)
		}
		if got := s.deques[1].units; len(got) != 2 || got[0] != (unit{0, 10}) || got[1] != (unit{10, 16}) {
			t.Fatalf("thief holds %v, want the head half {0,10},{10,16}", got)
		}
	})
	t.Run("steal-splits-single-large-unit", func(t *testing.T) {
		s := mk(unit{0, 100})
		lo, hi, ok := s.steal(1, 0)
		if !ok || lo != 96 || hi != 100 {
			t.Fatalf("steal = (%d,%d,%v), want (96,100)", lo, hi, ok)
		}
		if got := s.deques[0].units; len(got) != 1 || got[0] != (unit{0, 50}) {
			t.Fatalf("victim kept %v, want the front half {0,50}", got)
		}
		if got := s.deques[1].units; len(got) != 1 || got[0] != (unit{50, 96}) {
			t.Fatalf("thief holds %v, want the back half minus the popped slice", got)
		}
	})
	t.Run("steal-takes-single-small-unit-whole", func(t *testing.T) {
		s := mk(unit{0, 5})
		lo, hi, ok := s.steal(1, 0)
		if !ok || lo != 1 || hi != 5 {
			t.Fatalf("steal = (%d,%d,%v), want (1,5)", lo, hi, ok)
		}
		if got := s.deques[0].units; len(got) != 0 {
			t.Fatalf("victim kept %v, want empty", got)
		}
	})
	t.Run("drained", func(t *testing.T) {
		s := mk()
		if _, _, ok := s.next(0); ok {
			t.Fatal("next on an empty scheduler reported work")
		}
		if _, _, ok := s.next(1); ok {
			t.Fatal("next on an empty scheduler reported work")
		}
	})
}

// TestDriverDegenerateInputs pins the driver's edges: one inline worker and
// more workers than views must return the same parts as the serial reference
// on an empty, a one-view and a one-origin input (where the origin-aligned
// seed cut yields a single unit that only steals can spread).
func TestDriverDegenerateInputs(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	oneOrigin := dominantCampaign([]event.NodeID{7}, 7)
	oneView := event.NewCollection()
	oneView.Add(event.Event{Node: 7, Type: event.Gen, Sender: 7, Packet: event.PacketID{Origin: 7, Seq: 1}, Time: 1})
	inputs := map[string]*event.Collection{"empty": event.NewCollection(), "one-view": oneView, "one-origin": oneOrigin}
	cfg := diagnosis.Config{Sink: 900, End: 1 << 40, DayLen: 1000, Days: 3}
	for name, c := range inputs {
		views, ops := event.Partition(c)
		fu := fusion{diagnose: true, cfg: cfg, sched: diagnosis.OutagesFromOperational(ops, cfg.End)}
		serial := eng.Analyze(c)
		ref := diagnosis.BuildConfig(serial.Flows, ops, cfg)
		for _, workers := range []int{1, len(views) + 3} {
			p := eng.drive(views, workers, fu)
			if len(p.Flows) != len(views) || len(p.Outcomes) != len(views) {
				t.Fatalf("%s workers=%d: %d flows, %d outcomes for %d views", name, workers, len(p.Flows), len(p.Outcomes), len(views))
			}
			if len(views) > 0 && !reflect.DeepEqual(serial.Flows, p.Flows) {
				t.Errorf("%s workers=%d: flows diverged from serial", name, workers)
			}
			sameDiagnosis(t, name, ref, diagnosis.FromParts(cfg.Sink, fu.sched, p.Outcomes, p.Aggregate))
		}
	}
}
