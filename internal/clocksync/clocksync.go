// Package clocksync estimates per-node clock parameters (offset and drift)
// from reconstructed event flows — an extension the reconstruction makes
// possible: REFILL never needs synchronized clocks, but once flows are known,
// every matched trans/recv pair across a hop is a one-way time comparison
// between two node clocks, and the base-station server (whose clock is
// disciplined) anchors the whole network. With recovered clocks, per-packet
// delays become measurable from logs that were never synchronized.
//
// The model is the logging layer's: local(T) = T + offset + drift·T. Matched
// cross-node pairs give constraints clock_b(T) − clock_a(T) ≈ δ (up to MAC
// delay noise); a Gauss–Seidel sweep over the constraint graph, anchored at
// the server, solves for every node's (offset, drift) in least squares.
package clocksync

import (
	"sort"

	"repro/internal/event"
	"repro/internal/flow"
)

// constraint encodes clock_to(T) − clock_from(T) ≈ Delta observed around
// local time T (we use the observing clock's reading as the regressor; the
// error this introduces is second order in drift).
type constraint struct {
	From, To event.NodeID
	T        float64
	Delta    float64
}

// Params are one node's estimated clock parameters.
type Params struct {
	Offset float64 // microseconds
	Drift  float64 // dimensionless (us per us)
}

// Local converts a true time to this clock's reading.
func (p Params) Local(t int64) int64 {
	return t + int64(p.Offset) + int64(p.Drift*float64(t))
}

// True inverts the clock model: recover true time from a local reading.
func (p Params) True(local int64) int64 {
	// local = T(1+drift) + offset  =>  T = (local-offset)/(1+drift)
	return int64((float64(local) - p.Offset) / (1 + p.Drift))
}

// Result is a solved clock map.
type Result struct {
	// Anchor is the reference node (offset 0, drift 0).
	Anchor event.NodeID
	// Nodes maps every estimable node to its parameters.
	Nodes map[event.NodeID]Params
	// Pairs is the number of cross-node constraints used.
	Pairs int
	// Unanchored lists nodes with constraints but no path to the anchor
	// (their estimates are relative to their own component and dropped).
	Unanchored []event.NodeID
}

// Offset returns a node's estimated parameters.
func (r *Result) Offset(n event.NodeID) (Params, bool) {
	p, ok := r.Nodes[n]
	return p, ok
}

// Correct translates a logged event's local timestamp to estimated true time.
// Events of unknown nodes pass through unchanged.
func (r *Result) Correct(e event.Event) int64 {
	if p, ok := r.Nodes[e.Node]; ok {
		return p.True(e.Time)
	}
	return e.Time
}

// hopTimes collects, per flow and hop occurrence, the first logged trans,
// recv and ack timestamps.
type hopTimes struct {
	trans, recv, ack int64
	hasT, hasR, hasA bool
}

// sweeps is the number of Gauss–Seidel iterations Estimate runs; 10 is
// plenty.
const sweeps = 10

// Estimate solves the clock map from reconstructed flows, anchoring at
// anchor (normally event.Server whose clock is NTP-disciplined).
func Estimate(flows []*flow.Flow, anchor event.NodeID) *Result {
	return solve(collect(flows), anchor)
}

// collect extracts the cross-node clock constraints from the flows.
func collect(flows []*flow.Flow) []constraint {
	var cons []constraint
	for _, f := range flows {
		perHop := make(map[[2]event.NodeID]*hopTimes)
		get := func(a, b event.NodeID) *hopTimes {
			k := [2]event.NodeID{a, b}
			h, ok := perHop[k]
			if !ok {
				h = &hopTimes{}
				perHop[k] = h
			}
			return h
		}
		for _, it := range f.Items {
			if it.Inferred {
				continue // inferred events carry no timestamp
			}
			e := it.Event
			switch e.Type {
			case event.Trans:
				h := get(e.Sender, e.Receiver)
				if !h.hasT {
					h.trans, h.hasT = e.Time, true
				}
			case event.Recv:
				h := get(e.Sender, e.Receiver)
				if !h.hasR {
					h.recv, h.hasR = e.Time, true
				}
			case event.AckRecvd:
				h := get(e.Sender, e.Receiver)
				if !h.hasA {
					h.ack, h.hasA = e.Time, true
				}
			case event.ServerRecv:
				// Pairs the sink's clock against true time: the
				// serial transfer takes ~ms.
				h := get(e.Sender, event.Server)
				if !h.hasR {
					h.recv, h.hasR = e.Time, true
				}
			}
		}
		// Iterate hops in sorted order: constraint order feeds straight
		// into the least-squares accumulation, and floating-point sums are
		// order-sensitive — map order would make repeated estimates differ
		// in the last bits.
		keys := make([][2]event.NodeID, 0, len(perHop))
		for k := range perHop {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			h := perHop[k]
			a, b := k[0], k[1]
			if b == event.Server {
				// h.recv is the server's (true) receive time; the
				// sink's recv for the same packet is in the a->sink
				// hop entries — handled below via sink recv pairs.
				continue
			}
			// trans@a -> recv@b: clock_b - clock_a ≈ recv - trans
			// (positively biased by the LPL wait).
			if h.hasT && h.hasR {
				cons = append(cons, constraint{From: a, To: b,
					T: float64(h.trans), Delta: float64(h.recv - h.trans)})
			}
			// recv@b -> ack@a: clock_a - clock_b ≈ ack - recv (bias:
			// residual retransmissions; combined with the pair above
			// the MAC bias largely cancels).
			if h.hasR && h.hasA {
				cons = append(cons, constraint{From: b, To: a,
					T: float64(h.recv), Delta: float64(h.ack - h.recv)})
			}
		}
		// Sink-to-server pairs: the sink's recv of a packet vs the
		// server's store of the same packet.
		for _, k := range keys {
			h := perHop[k]
			if k[1] != event.Server || !h.hasR {
				continue
			}
			sink := k[0]
			for _, k2 := range keys {
				h2 := perHop[k2]
				if k2[1] == sink && h2.hasR {
					cons = append(cons, constraint{From: sink, To: event.Server,
						T: float64(h2.recv), Delta: float64(h.recv - h2.recv)})
					break
				}
			}
		}
	}
	return cons
}

// solve runs anchored Gauss–Seidel least squares over the constraint graph.
func solve(cons []constraint, anchor event.NodeID) *Result {
	res := &Result{Anchor: anchor, Nodes: make(map[event.NodeID]Params), Pairs: len(cons)}
	// Adjacency: node -> constraint indexes touching it.
	adj := make(map[event.NodeID][]int)
	for i, c := range cons {
		adj[c.From] = append(adj[c.From], i)
		adj[c.To] = append(adj[c.To], i)
	}
	if len(adj) == 0 {
		res.Nodes[anchor] = Params{}
		return res
	}
	// BFS from the anchor for a good solve order and connectivity check.
	order := []event.NodeID{}
	seen := map[event.NodeID]bool{anchor: true}
	queue := []event.NodeID{anchor}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		var nbrs []event.NodeID
		for _, i := range adj[cur] {
			other := cons[i].From
			if other == cur {
				other = cons[i].To
			}
			if !seen[other] {
				seen[other] = true
				nbrs = append(nbrs, other)
			}
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		queue = append(queue, nbrs...)
	}
	for n := range adj {
		if !seen[n] {
			res.Unanchored = append(res.Unanchored, n)
		}
	}
	sort.Slice(res.Unanchored, func(i, j int) bool { return res.Unanchored[i] < res.Unanchored[j] })

	params := map[event.NodeID]Params{anchor: {}}
	for _, n := range order {
		if n != anchor {
			params[n] = Params{}
		}
	}
	// The first sweep only trusts constraints whose peer is already solved
	// (walking outward from the anchor) — this is exact on trees and gives
	// later full sweeps a good starting point instead of diluting the
	// anchor's information with zero-initialized neighbors.
	solved := map[event.NodeID]bool{anchor: true}
	for s := 0; s < sweeps; s++ {
		for _, n := range order {
			if n == anchor {
				continue
			}
			// Fit off_n + drift_n * T over this node's constraints,
			// holding neighbors at their current estimates.
			var sw, st, stt, sy, sty float64
			for _, i := range adj[n] {
				c := cons[i]
				if s == 0 {
					peer := c.From
					if peer == n {
						peer = c.To
					}
					if !solved[peer] {
						continue
					}
				}
				var y float64
				if c.To == n {
					// clock_n(T) = clock_from(T) + delta
					pf := params[c.From]
					y = pf.Offset + pf.Drift*c.T + c.Delta
				} else {
					// clock_n(T) = clock_to(T) - delta
					pt := params[c.To]
					y = pt.Offset + pt.Drift*c.T - c.Delta
				}
				sw++
				st += c.T
				stt += c.T * c.T
				sy += y
				sty += c.T * y
			}
			if sw == 0 {
				continue
			}
			solved[n] = true
			// Closed-form 2-parameter least squares. Drift is only
			// fit when the samples span a real baseline (an hour+ of
			// regressor spread) — on short spans the intercept/slope
			// trade-off is ill-conditioned and a spurious slope would
			// wreck the offset — and is clamped to the physically
			// plausible crystal range (hundreds of ppm).
			p := params[n]
			meanT := st / sw
			variance := stt/sw - meanT*meanT
			const minSpread = 3.6e9 * 3.6e9 // (1 hour)^2 in us^2
			const maxDrift = 5e-4
			det := sw*stt - st*st
			if variance > minSpread && det != 0 {
				p.Drift = (sw*sty - st*sy) / det
				if p.Drift > maxDrift {
					p.Drift = maxDrift
				} else if p.Drift < -maxDrift {
					p.Drift = -maxDrift
				}
				p.Offset = sy/sw - p.Drift*meanT
			} else {
				p.Drift = 0
				p.Offset = sy / sw
			}
			params[n] = p
		}
	}
	for _, n := range order {
		res.Nodes[n] = params[n]
	}
	return res
}

// MeanAbsOffsetError scores an estimate against known true clocks (tests and
// experiments): the mean absolute error of predicted local-time readings at
// time t, over the given nodes.
func (r *Result) MeanAbsOffsetError(truth map[event.NodeID]Params, t int64) float64 {
	n, sum := 0, 0.0
	for node, want := range truth {
		got, ok := r.Nodes[node]
		if !ok {
			continue
		}
		d := float64(got.Local(t) - want.Local(t))
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
