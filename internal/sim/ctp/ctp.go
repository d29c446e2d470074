// Package ctp models the Collection Tree Protocol as deployed in CitySee
// (Section V-A3): every node maintains a path-ETX estimate to the sink, built
// from neighbors' beacons, and forwards data packets to the parent minimizing
// linkETX + pathETX. Beacons are lossy, so nodes act on stale caches —
// exactly the mechanism behind transient routing loops and the duplicate
// losses the paper attributes to them.
package ctp

import (
	"math"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/sim/topology"
)

// Config tunes the routing layer.
type Config struct {
	// BeaconInterval is the spacing of routing epochs. Default 2 minutes.
	BeaconInterval sim.Time
	// BeaconTries is how many chances an epoch gives each beacon: a
	// neighbor hears it with probability 1-(1-q)^BeaconTries. Default 3.
	BeaconTries int
	// Hysteresis is the path-ETX improvement required before switching
	// parents (CTP uses ~1.5 ETX on TinyOS). Default 0.5.
	Hysteresis float64
}

func (c Config) withDefaults() Config {
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 2 * sim.Minute
	}
	if c.BeaconTries <= 0 {
		c.BeaconTries = 3
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.5
	}
	return c
}

// Router is the network-wide routing state. The simulator owns one Router
// and calls Epoch on the beacon schedule.
type Router struct {
	cfg   Config
	topo  *topology.Topology
	links *topology.LinkModel
	rng   *sim.RNG

	// pathETX is each node's own current advertisement.
	pathETX map[event.NodeID]float64
	// parent is each node's chosen next hop (NoNode when unrouted).
	parent map[event.NodeID]event.NodeID
	// cache is each node's view of its neighbors' advertised path ETX,
	// updated only by beacons that actually got through.
	cache map[event.NodeID]map[event.NodeID]float64

	ids []event.NodeID
}

// NewRouter builds a router and bootstraps the initial tree with reliable
// beacons (deployments run the network for a while before the measurement
// campaign; the bootstrap stands in for that settling period).
func NewRouter(topo *topology.Topology, links *topology.LinkModel, rng *sim.RNG, cfg Config) *Router {
	r := &Router{
		cfg:     cfg.withDefaults(),
		topo:    topo,
		links:   links,
		rng:     rng,
		pathETX: make(map[event.NodeID]float64),
		parent:  make(map[event.NodeID]event.NodeID),
		cache:   make(map[event.NodeID]map[event.NodeID]float64),
		ids:     topo.NodeIDs(),
	}
	for _, id := range r.ids {
		r.pathETX[id] = math.Inf(1)
		r.parent[id] = event.NoNode
		r.cache[id] = make(map[event.NodeID]float64)
	}
	r.pathETX[topo.Sink] = 0
	r.bootstrap()
	return r
}

// bootstrap floods perfect beacons until the tree stabilizes.
func (r *Router) bootstrap() {
	for round := 0; round < len(r.ids)+2; round++ {
		changed := false
		// Perfect broadcast phase.
		for _, src := range r.ids {
			for _, dst := range r.topo.Neighbors(src) {
				r.cache[dst][src] = r.pathETX[src]
			}
		}
		// Selection phase.
		for _, n := range r.ids {
			if r.selectParent(n, 0, 0) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// Epoch runs one lossy beacon round at virtual time now: every node
// broadcasts its advertised path ETX, neighbors hear it probabilistically,
// then every node re-selects its parent from its (possibly stale) cache.
func (r *Router) Epoch(now sim.Time) {
	// Broadcast phase: advertisements land with beacon-success probability
	// derived from instantaneous link quality.
	for _, src := range r.ids {
		adv := r.pathETX[src]
		for _, dst := range r.topo.Neighbors(src) {
			q := r.links.Quality(src, dst, now)
			pHear := 1 - math.Pow(1-q, float64(r.cfg.BeaconTries))
			if r.rng.Bool(pHear) {
				r.cache[dst][src] = adv
			}
		}
	}
	// Selection phase on cached (stale) state.
	for _, n := range r.ids {
		r.selectParent(n, now, r.cfg.Hysteresis)
	}
}

// selectParent recomputes n's parent and advertisement from its cache; it
// reports whether anything changed. The sink never selects a parent.
func (r *Router) selectParent(n event.NodeID, now sim.Time, hysteresis float64) bool {
	if n == r.topo.Sink {
		return false
	}
	bestParent := event.NoNode
	best := math.Inf(1)
	for _, nbr := range r.topo.Neighbors(n) {
		nbrPath, ok := r.cache[n][nbr]
		if !ok || math.IsInf(nbrPath, 1) {
			continue
		}
		cost := nbrPath + r.links.ETX(n, nbr, now)
		if cost < best {
			best = cost
			bestParent = nbr
		}
	}
	if bestParent == event.NoNode {
		return false // keep the old route rather than go unrouted
	}
	cur := r.parent[n]
	curCost := math.Inf(1)
	if cur != event.NoNode {
		if nbrPath, ok := r.cache[n][cur]; ok {
			curCost = nbrPath + r.links.ETX(n, cur, now)
		}
	}
	changed := false
	if cur == event.NoNode || best < curCost-hysteresis {
		if cur != bestParent {
			r.parent[n] = bestParent
			changed = true
		}
		curCost = best
	}
	if r.pathETX[n] != curCost {
		r.pathETX[n] = curCost
		changed = true
	}
	return changed
}

// Refresh models CTP's datapath loop mitigation: receiving a duplicate (the
// signature of a loop) triggers an immediate beacon exchange in the node's
// neighborhood, refreshing its stale cache and re-selecting its parent.
func (r *Router) Refresh(n event.NodeID, now sim.Time) {
	for _, nbr := range r.topo.Neighbors(n) {
		r.cache[n][nbr] = r.pathETX[nbr]
	}
	r.selectParent(n, now, 0)
}

// Parent returns n's current next hop toward the sink (NoNode if unrouted).
func (r *Router) Parent(n event.NodeID) event.NodeID { return r.parent[n] }

// PathETX returns n's current advertised path ETX.
func (r *Router) PathETX(n event.NodeID) float64 { return r.pathETX[n] }

// Routed reports whether n currently has a parent (the sink counts as
// routed).
func (r *Router) Routed(n event.NodeID) bool {
	return n == r.topo.Sink || r.parent[n] != event.NoNode
}
