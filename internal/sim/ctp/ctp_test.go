package ctp

import (
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/sim/topology"
)

func build(t *testing.T, n int, seed int64) (*topology.Topology, *topology.LinkModel, *Router) {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	links := topology.NewLinkModel(topo, seed)
	r := NewRouter(topo, links, sim.NewRNG(seed), Config{})
	return topo, links, r
}

// onLoop reports whether following parents from n returns to a visited node
// before reaching the sink.
func onLoop(r *Router, n event.NodeID) bool {
	seen := make(map[event.NodeID]bool)
	cur := n
	for cur != r.topo.Sink {
		if seen[cur] {
			return true
		}
		seen[cur] = true
		next := r.parent[cur]
		if next == event.NoNode {
			return false
		}
		cur = next
	}
	return false
}

func TestBootstrapRoutesEveryone(t *testing.T) {
	topo, _, r := build(t, 100, 3)
	for _, n := range topo.NodeIDs() {
		if !r.Routed(n) {
			t.Errorf("node %v unrouted after bootstrap", n)
		}
	}
}

func TestBootstrapTreeIsLoopFree(t *testing.T) {
	topo, _, r := build(t, 100, 3)
	for _, n := range topo.NodeIDs() {
		if onLoop(r, n) {
			t.Errorf("bootstrap tree has a loop at %v", n)
		}
		if r.depthOf(n) < 0 {
			t.Errorf("node %v has no path to sink", n)
		}
	}
	if d := r.depthOf(topo.Sink); d != 0 {
		t.Errorf("sink depth = %d", d)
	}
}

func TestPathETXMonotoneDownTree(t *testing.T) {
	topo, _, r := build(t, 64, 5)
	for _, n := range topo.NodeIDs() {
		if n == topo.Sink {
			continue
		}
		p := r.Parent(n)
		if p == event.NoNode {
			t.Fatalf("node %v unrouted", n)
		}
		if r.PathETX(n) <= r.PathETX(p) {
			t.Errorf("pathETX(%v)=%v <= pathETX(parent %v)=%v",
				n, r.PathETX(n), p, r.PathETX(p))
		}
	}
}

func TestSinkAdvertisesZero(t *testing.T) {
	topo, _, r := build(t, 25, 1)
	if r.PathETX(topo.Sink) != 0 {
		t.Errorf("sink pathETX = %v", r.PathETX(topo.Sink))
	}
	if r.Parent(topo.Sink) != event.NoNode {
		t.Errorf("sink has a parent: %v", r.Parent(topo.Sink))
	}
}

func TestEpochKeepsNetworkMostlyRouted(t *testing.T) {
	topo, _, r := build(t, 100, 7)
	for i := 0; i < 50; i++ {
		r.Epoch(sim.Time(i) * 2 * sim.Minute)
	}
	unrouted := 0
	for _, n := range topo.NodeIDs() {
		if !r.Routed(n) {
			unrouted++
		}
	}
	if unrouted > 0 {
		t.Errorf("%d nodes unrouted after epochs", unrouted)
	}
}

func TestBurstCausesParentChurnOrLoops(t *testing.T) {
	// Degrade the region around a mid-tree node heavily; over several
	// epochs some parents must change (stale caches may transiently loop).
	topo, links, r := build(t, 144, 11)
	before := make(map[event.NodeID]event.NodeID)
	for _, n := range topo.NodeIDs() {
		before[n] = r.Parent(n)
	}
	center := topo.NodeIDs()[70]
	links.AddBurst(topology.Burst{
		Center: center, Radius: topo.Range * 1.5,
		Start: 0, End: 3 * sim.Hour, Factor: 0.12,
	})
	changed := 0
	for i := 0; i < 30; i++ {
		r.Epoch(sim.Time(i) * 2 * sim.Minute)
	}
	for _, n := range topo.NodeIDs() {
		if r.Parent(n) != before[n] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("heavy interference burst caused no parent churn")
	}
}

func TestEpochDeterministic(t *testing.T) {
	_, _, r1 := build(t, 64, 13)
	_, _, r2 := build(t, 64, 13)
	for i := 0; i < 20; i++ {
		r1.Epoch(sim.Time(i) * sim.Minute)
		r2.Epoch(sim.Time(i) * sim.Minute)
	}
	for n := event.NodeID(1); n <= 64; n++ {
		if r1.Parent(n) != r2.Parent(n) {
			t.Fatalf("nondeterministic parent for %v", n)
		}
		if r1.PathETX(n) != r2.PathETX(n) {
			t.Fatalf("nondeterministic pathETX for %v", n)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BeaconInterval != 2*sim.Minute || c.BeaconTries != 3 || c.Hysteresis != 0.5 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c = Config{BeaconInterval: sim.Hour, BeaconTries: 7, Hysteresis: 2}.withDefaults()
	if c.BeaconInterval != sim.Hour || c.BeaconTries != 7 || c.Hysteresis != 2 {
		t.Errorf("explicit config clobbered: %+v", c)
	}
}

func TestOnLoopDetectsManufacturedLoop(t *testing.T) {
	topo, _, r := build(t, 25, 1)
	// Manufacture a loop between two non-sink nodes.
	ids := topo.NodeIDs()
	var a, b event.NodeID
	for _, n := range ids {
		if n == topo.Sink {
			continue
		}
		for _, m := range topo.Neighbors(n) {
			if m != topo.Sink {
				a, b = n, m
				break
			}
		}
		if b != 0 {
			break
		}
	}
	r.parent[a] = b
	r.parent[b] = a
	if !onLoop(r, a) || !onLoop(r, b) {
		t.Error("manufactured loop not detected")
	}
	if d := r.depthOf(a); d != -1 {
		t.Errorf("loop depth = %d, want -1", d)
	}
}

func TestUnroutedNeverRegresses(t *testing.T) {
	// Even with brutal global weather, nodes keep their last-known parent
	// (CTP keeps stale routes rather than dropping them).
	topo, links, r := build(t, 49, 17)
	links.Weather = func(sim.Time) float64 { return 0.05 }
	for i := 0; i < 20; i++ {
		r.Epoch(sim.Time(i) * sim.Minute)
	}
	for _, n := range topo.NodeIDs() {
		if !r.Routed(n) {
			t.Errorf("node %v lost its route entirely", n)
		}
	}
}

func TestPathETXFinite(t *testing.T) {
	topo, _, r := build(t, 81, 19)
	for i := 0; i < 10; i++ {
		r.Epoch(sim.Time(i) * sim.Minute)
	}
	for _, n := range topo.NodeIDs() {
		if math.IsInf(r.PathETX(n), 1) {
			t.Errorf("node %v has infinite pathETX", n)
		}
	}
}

func TestRefreshRepairsLoop(t *testing.T) {
	topo, _, r := build(t, 49, 23)
	// Manufacture a loop between two neighbors, then Refresh both: with
	// fresh caches the parents must re-point sensibly (no loop through
	// the pair).
	var a, b event.NodeID
	for _, n := range topo.NodeIDs() {
		if n == topo.Sink {
			continue
		}
		for _, m := range topo.Neighbors(n) {
			if m != topo.Sink {
				a, b = n, m
				break
			}
		}
		if b != 0 {
			break
		}
	}
	r.parent[a] = b
	r.parent[b] = a
	if !onLoop(r, a) {
		t.Fatal("loop not in place")
	}
	r.Refresh(a, 0)
	r.Refresh(b, 0)
	if onLoop(r, a) || onLoop(r, b) {
		t.Errorf("refresh did not break the loop: parent[%v]=%v parent[%v]=%v",
			a, r.Parent(a), b, r.Parent(b))
	}
}

func TestRefreshKeepsSinkUntouched(t *testing.T) {
	topo, _, r := build(t, 25, 29)
	r.Refresh(topo.Sink, 0)
	if r.Parent(topo.Sink) != event.NoNode || r.PathETX(topo.Sink) != 0 {
		t.Error("refresh must not give the sink a parent")
	}
}

// depthOf is n's hop count to the sink following current parents, -1 for an
// unrouted or looping node.
func (r *Router) depthOf(n event.NodeID) int {
	seen := make(map[event.NodeID]bool)
	d := 0
	cur := n
	for cur != r.topo.Sink {
		if seen[cur] {
			return -1
		}
		seen[cur] = true
		next := r.parent[cur]
		if next == event.NoNode {
			return -1
		}
		cur = next
		d++
	}
	return d
}
