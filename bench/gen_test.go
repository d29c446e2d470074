package main

import (
	"bytes"
	"testing"

	"repro/internal/event"
	"repro/internal/workload"
)

func encode(t *testing.T, c *event.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := event.WriteCollectionBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) []byte {
		c, err := genSkew(workload.Tiny(seed), smokeScale.skewEvents)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, c.logs)
	}
	a, b, other := gen(5), gen(5), gen(6)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestSkewHotOriginDominates(t *testing.T) {
	const target = 500_000
	c, err := genSkew(workload.Tiny(3), target)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.logs.TotalEvents(); got < target || got > target*11/10 {
		t.Errorf("grew to %d events, want about %d", got, target)
	}
	if err := c.logs.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := event.PlanWindows(c.logs, 4096); err != nil {
		t.Errorf("replication broke per-node time order: %v", err)
	}
	views, _ := event.Partition(c.logs)
	perOrigin := make(map[event.NodeID]int)
	for _, v := range views {
		perOrigin[v.Packet.Origin]++
	}
	hot := 0
	for _, n := range perOrigin {
		hot = max(hot, n)
	}
	if hot*2 < len(views) {
		t.Errorf("hottest origin has %d of %d packets: not skewed", hot, len(views))
	}
}

// The slicer must deliver every event exactly once and keep each node's log
// order: refill-serve requires fragments in per-node log order.
func TestSliceRoundsConservesAndOrders(t *testing.T) {
	c, err := genCitySee(workload.Tiny(9))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 7
	s, err := sliceRounds(c.logs, rounds, c.end())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.rounds) != rounds || len(s.cuts) != rounds || s.cuts[rounds-1] != c.end() {
		t.Fatalf("%d rounds, cuts %v", len(s.rounds), s.cuts)
	}
	rebuilt := event.NewCollection()
	for r, round := range s.rounds {
		last := event.NoNode
		for _, f := range round {
			if f.node <= last {
				t.Fatalf("round %d: node %v after %v", r, f.node, last)
			}
			last = f.node
			part, err := event.ReadCollectionBinary(bytes.NewReader(f.body))
			if err != nil {
				t.Fatal(err)
			}
			if nodes := part.Nodes(); len(nodes) != 1 || nodes[0] != f.node || part.TotalEvents() != f.events {
				t.Fatalf("round %d node %v: body holds nodes %v, %d events, header says %d", r, f.node, nodes, part.TotalEvents(), f.events)
			}
			for _, e := range part.Log(f.node).Events() {
				if r < rounds-1 && e.Time >= s.cuts[r] {
					t.Fatalf("round %d carries a row stamped %d, at or past its cut %d", r, e.Time, s.cuts[r])
				}
				rebuilt.Log(f.node).Append(e)
			}
		}
	}
	if !bytes.Equal(encode(t, rebuilt), encode(t, c.logs)) {
		t.Error("the fragments, concatenated per node, are not the original logs")
	}
	if s.appends() == 0 || s.appends() > rounds*len(s.nodes) {
		t.Errorf("%d appends for %d nodes and %d rounds", s.appends(), len(s.nodes), rounds)
	}
}
