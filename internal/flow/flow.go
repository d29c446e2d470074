// Package flow defines the output of the REFILL pipeline: per-packet event
// flows — the paper's F̃ = E_{i1,j1}, E_{i2,j2}, … — in which events inferred
// by the engine (lost from the logs) are explicitly marked, plus per-visit
// summaries of where each node's inference engine ended up.
package flow

import (
	"strings"

	"repro/internal/event"
)

// Item is one element of an event flow. Inferred items were never logged:
// the engine synthesized them from intra-node or inter-node correlations.
type Item struct {
	Event    event.Event
	Inferred bool
}

// String renders the item in the paper's notation: inferred events are shown
// in square brackets, e.g. "[1-2 recv]".
func (it Item) String() string {
	if it.Inferred {
		return "[" + it.Event.String() + "]"
	}
	return it.Event.String()
}

// Visit summarizes one packet visit at one node: a single life cycle of the
// node's inference engine. A packet revisiting a node (routing loop,
// retransmission after ACK) produces multiple visits. A Visit is a plain
// value: the state the engine ended in is carried once, by name.
type Visit struct {
	Node event.NodeID
	// Index is the zero-based visit number at this node for this packet.
	Index int
	// State is the name of the engine's final state for this visit: one
	// of the fsm.State* constants for the built-in role graphs, which the
	// diagnosis classifier matches by name. The string is the graph's
	// own, so recording it allocates nothing.
	State string
	// Terminal reports whether that state is terminal in the node's graph.
	Terminal bool
	// RecvInferred is true when the visit's custody-establishing event
	// (recv at a relay/sink) was inferred rather than logged — the
	// signature of the paper's "acked loss".
	RecvInferred bool
	// Peer is the next-hop the visit transmitted to (NoNode if the visit
	// never transmitted or the peer is unknown).
	Peer event.NodeID
	// LastPos is the index into Flow.Items of the last item that advanced
	// this visit, establishing the visit's place in the reconstruction.
	LastPos int
}

// Anomaly records an input event the engine had to discard (paper step 3:
// "events that cannot be processed … are omitted") or a consistency problem
// it noticed while connecting engines.
type Anomaly struct {
	Event  event.Event
	Reason string
}

// Flow is the reconstructed event flow for one packet. Engine-produced flows
// are spans carved from a flow.Arena (see Build); hand-assembled flows grow
// their own slices through Append or by assignment. Either way a Flow is a
// plain value: its public fields are all it holds, and no reader writes.
type Flow struct {
	Packet event.PacketID
	Items  []Item
	// Visits lists every engine visit in creation order.
	Visits []Visit
	// Anomalies lists discarded or inconsistent inputs.
	Anomalies []Anomaly
}

// Append adds an item and returns its position.
func (f *Flow) Append(it Item) int {
	f.Items = append(f.Items, it)
	return len(f.Items) - 1
}

// InferredCount returns how many items were inferred.
func (f *Flow) InferredCount() int {
	n := 0
	for i := range f.Items {
		if f.Items[i].Inferred {
			n++
		}
	}
	return n
}

// LoggedCount returns how many items came straight from the logs.
func (f *Flow) LoggedCount() int { return len(f.Items) - f.InferredCount() }

// String renders the flow in the paper's comma-separated notation.
func (f *Flow) String() string {
	parts := make([]string, len(f.Items))
	for i, it := range f.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

// Contains reports whether the flow contains an item with the given event
// key, optionally restricted to inferred/logged items (pass nil for any).
func (f *Flow) Contains(k event.Key, inferred *bool) bool {
	for _, it := range f.Items {
		if it.Event.Key() == k && (inferred == nil || it.Inferred == *inferred) {
			return true
		}
	}
	return false
}

// Delivered reports whether the packet demonstrably reached the base-station
// server (a ServerRecv item is present).
func (f *Flow) Delivered() bool {
	for _, it := range f.Items {
		if it.Event.Type == event.ServerRecv {
			return true
		}
	}
	return false
}

// custodyItem reports whether an item places the packet at a node: the node
// demonstrably holds (or just dropped) the packet when the event occurs.
func custodyItem(it Item) bool {
	switch it.Event.Type {
	case event.Gen, event.Recv, event.Trans, event.Dup, event.Overflow,
		event.ServerRecv, event.Enqueue, event.Dequeue:
		return true
	}
	return false
}

// custodyNode returns the node holding the packet at a custody item.
func custodyNode(it Item) event.NodeID {
	if it.Event.Type.SenderSide() || it.Event.Type.NodeLocal() {
		return it.Event.Sender
	}
	return it.Event.Receiver
}

// Path returns the packet's custody path: the sequence of nodes that held the
// packet, in flow order, with consecutive duplicates collapsed. The origin
// comes first even when its events were all lost (the packet ID names it).
//
// Retransmission byproducts are filtered out: once a hop (a, b) has carried
// the packet, further trans/dup records on that same hop are the sender
// retrying (its ACK was lost), not the packet traveling back — counting them
// would manufacture loops out of ordinary retransmissions. A genuinely
// looping packet re-enters a node over a NEW hop, which still registers.
func (f *Flow) Path() []event.NodeID {
	var path []event.NodeID
	idx := make(map[event.NodeID]int) // last position of each node in path
	push := func(n event.NodeID) {
		if n != event.NoNode && (len(path) == 0 || path[len(path)-1] != n) {
			path = append(path, n)
			idx[n] = len(path) - 1
		}
	}
	// arrival handles receiver-side custody: forward progress when the
	// receiver is new; a loop return only when the sender demonstrably
	// sits DOWNSTREAM of the receiver's earlier appearance — otherwise the
	// record is a retransmission byproduct or an out-of-order linearization
	// artifact, not the packet traveling backwards.
	arrival := func(s, r event.NodeID) {
		ri, rSeen := idx[r]
		if !rSeen {
			push(r)
			return
		}
		if si, sSeen := idx[s]; sSeen && si > ri {
			push(r) // genuine loop closure
		}
	}
	type hop struct{ s, r event.NodeID }
	traversed := make(map[hop]bool)
	push(f.Packet.Origin)
	for _, it := range f.Items {
		e := it.Event
		h := hop{e.Sender, e.Receiver}
		switch e.Type {
		case event.Gen, event.Enqueue, event.Dequeue:
			push(e.Sender)
		case event.Recv, event.ServerRecv, event.Dup, event.Overflow:
			first := !traversed[h]
			traversed[h] = true
			if first || e.Type == event.Recv || e.Type == event.ServerRecv {
				arrival(e.Sender, e.Receiver)
			}
		case event.Trans:
			if traversed[h] {
				continue // retry after the hop already carried the packet
			}
			push(e.Sender)
		}
	}
	return path
}

// HasLoop reports whether the custody path revisits a node — the signature of
// a routing loop (or of a retransmission bouncing a packet back).
func (f *Flow) HasLoop() bool {
	seen := make(map[event.NodeID]bool)
	for _, n := range f.Path() {
		if seen[n] {
			return true
		}
		seen[n] = true
	}
	return false
}

// LastCustody returns the last custody item and its holder, or ok=false if
// the flow has no custody items at all.
func (f *Flow) LastCustody() (Item, event.NodeID, bool) {
	for i := len(f.Items) - 1; i >= 0; i-- {
		if custodyItem(f.Items[i]) {
			return f.Items[i], custodyNode(f.Items[i]), true
		}
	}
	return Item{}, event.NoNode, false
}

// VisitFor returns the summary of the given visit, or ok=false.
func (f *Flow) VisitFor(n event.NodeID, index int) (Visit, bool) {
	for _, v := range f.Visits {
		if v.Node == n && v.Index == index {
			return v, true
		}
	}
	return Visit{}, false
}

// LastVisit returns the most recent visit at node n (highest index).
func (f *Flow) LastVisit(n event.NodeID) (Visit, bool) {
	best := Visit{Index: -1}
	for _, v := range f.Visits {
		if v.Node == n && v.Index > best.Index {
			best = v
		}
	}
	return best, best.Index >= 0
}

// Retransmissions returns the number of extra transmission attempts per hop:
// for each (sender, receiver) pair, the count of Trans items minus one
// (zero or positive). Hops with a single attempt are omitted.
func (f *Flow) Retransmissions() map[[2]event.NodeID]int {
	counts := make(map[[2]event.NodeID]int)
	for _, it := range f.Items {
		if it.Event.Type == event.Trans {
			counts[[2]event.NodeID{it.Event.Sender, it.Event.Receiver}]++
		}
	}
	out := make(map[[2]event.NodeID]int)
	//refill:allow maprange — map-to-map transform; no ordered output is produced
	for hop, c := range counts {
		if c > 1 {
			out[hop] = c - 1
		}
	}
	return out
}
