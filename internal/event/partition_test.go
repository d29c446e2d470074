package event

import (
	"math/rand"
	"reflect"
	"testing"
)

// samePartition fails unless partition(c, helpers) is Partition(c) exactly:
// the same views with the same spans, one shared arena with its columns
// and the Info table equal row for row, and the same operational events.
// Node and packet are not stored, so checkSpanInvariants checks them, as
// EventAt gives them, against c's rows.
func samePartition(t *testing.T, c *Collection, helpers int) {
	t.Helper()
	wantViews, wantOps := Partition(c)
	views, ops := partition(c, helpers)
	if !reflect.DeepEqual(ops, wantOps) {
		t.Fatalf("helpers=%d: operational events %v, want %v", helpers, ops, wantOps)
	}
	if len(views) != len(wantViews) {
		t.Fatalf("helpers=%d: %d views, want %d", helpers, len(views), len(wantViews))
	}
	if len(views) == 0 {
		return
	}
	for i, v := range views {
		if v.Packet != wantViews[i].Packet || !reflect.DeepEqual(v.Spans(), wantViews[i].Spans()) {
			t.Fatalf("helpers=%d: view %d is %v %v, want %v %v", helpers, i, v.Packet, v.Spans(), wantViews[i].Packet, wantViews[i].Spans())
		}
		if cap(v.spans) != len(v.spans) {
			t.Fatalf("helpers=%d: view %v's spans have spare capacity %d", helpers, v.Packet, cap(v.spans)-len(v.spans))
		}
	}
	if col := sameArena(views[0].rows, wantViews[0].rows); col != "" {
		t.Fatalf("helpers=%d: arena column %s differs", helpers, col)
	}
	checkSpanInvariants(t, c, views)
}

// TestPartitionWorkersMatchSerial holds the parallel partition to the serial
// one on the inputs where a share boundary could go wrong: none or one
// packet, Info rows, keys that differ in one byte or in all, one hot origin,
// and sizes on both sides of PartitionWorkers' cutoff.
func TestPartitionWorkersMatchSerial(t *testing.T) {
	ev := func(node, origin NodeID, seq uint32, time int64) Event {
		return Event{Node: node, Type: Recv, Sender: origin, Receiver: node, Packet: PacketID{Origin: origin, Seq: seq}, Time: time}
	}
	random := func(seed int64, n int, key func(*rand.Rand) (NodeID, uint32)) *Collection {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollection()
		for i := 0; i < n; i++ {
			origin, seq := key(rng)
			c.Add(ev(NodeID(1+rng.Intn(7)), origin, seq, rng.Int63n(1<<40)))
		}
		return c
	}
	cases := map[string]*Collection{
		"empty": NewCollection(),
		"operational only": collectionOf(
			Event{Node: Server, Type: ServerDown, Time: 50},
			Event{Node: Server, Type: ServerUp, Time: 20}),
		"single packet": collectionOf(ev(3, 7, 9, 1), ev(1, 7, 9, 2), ev(3, 7, 9, 3), ev(2, 7, 9, 4), ev(5, 7, 9, 5)),
		"info":          buildInfoCollection(61, 3000),
		// Origins 1<<24 apart: only the key's top byte varies, so one pass runs.
		"top byte only": random(62, 3000, func(rng *rand.Rand) (NodeID, uint32) { return NodeID(rng.Intn(200)) << 24, 5 }),
		"every byte": random(63, 3000, func(rng *rand.Rand) (NodeID, uint32) {
			return NodeID(rng.Uint32() | 1<<24), rng.Uint32()
		}),
		// One origin holds nine rows in ten, so its views fill whole shares.
		"hot origin": random(64, 5000, func(rng *rand.Rand) (NodeID, uint32) {
			if rng.Intn(10) > 0 {
				return 3, uint32(rng.Intn(400))
			}
			return NodeID(4 + rng.Intn(20)), uint32(rng.Intn(50))
		}),
		"random": buildRandomCollection(65, 4000),
		// The first key has every varying bit set, so a merge that drops
		// the first key's bits skips the one pass needed.
		"descending": func() *Collection {
			c := NewCollection()
			for i := 0; i < 3000; i++ {
				c.Add(ev(NodeID(1+i%3), 9, uint32(255-i%256), int64(i)))
			}
			return c
		}(),
		// Each share holds one packet, the later share's sorting first: only
		// the shares' first keys differ.
		"one packet per share": func() *Collection {
			c := NewCollection()
			for i := 0; i < 4000; i++ {
				c.Add(ev(1, NodeID(2-i/2000), 5, int64(i)))
			}
			return c
		}(),
		// PartitionWorkers runs one helper below 2*partitionGrain rows.
		"below cutoff": buildRandomCollection(66, 2*partitionGrain-1),
		"at cutoff":    buildRandomCollection(67, 2*partitionGrain),
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkPartition(t, c)
			for _, helpers := range []int{1, 2, 3, 8} {
				samePartition(t, c, helpers)
			}
			views, ops := PartitionWorkers(c, 2)
			wantViews, wantOps := Partition(c)
			if len(views) != len(wantViews) || !reflect.DeepEqual(ops, wantOps) {
				t.Fatalf("PartitionWorkers(c, 2): %d views, want %d", len(views), len(wantViews))
			}
			for i := range views {
				if !reflect.DeepEqual(views[i].PerNodeEvents(), wantViews[i].PerNodeEvents()) {
					t.Fatalf("PartitionWorkers(c, 2): view %v differs", views[i].Packet)
				}
			}
		})
	}
}

// TestPartitionParallelAllocs pins what a helper costs: its share of the
// gathers, its goroutine and the shares, a fixed number per helper however
// many radix passes run.
func TestPartitionParallelAllocs(t *testing.T) {
	c := buildRandomCollection(7, 20000)
	serial := testing.AllocsPerRun(5, func() { partition(c, 1) })
	for _, helpers := range []int{2, 8} {
		if allocs := testing.AllocsPerRun(5, func() { partition(c, helpers) }); allocs > serial+8*float64(helpers) {
			t.Errorf("%d helpers made %.0f allocations, serial %.0f: want at most 8 more per helper", helpers, allocs, serial)
		}
	}
}
