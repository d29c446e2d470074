package diagnosis

import (
	"sync"

	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
)

// Classifier diagnoses flows with reusable per-flow scratch: the per-hop
// reception/transmission count table and the custody path are rebuilt in
// place, so Classify allocates nothing in steady state. A Classifier is not
// safe for concurrent use — the fused analysis paths give each worker its
// own; the package-level Classify wraps a pool for one-off callers.
//
// Visits are matched by their state name (flow.Visit.State) through the
// switch predicates isLive, isSentReaching and dropCause; a name outside
// them (a foreign graph's state) has no predicate at all.
//
//refill:owned — per-worker scratch: the fused analysis paths give each worker its own
type Classifier struct {
	// Per-flow scratch, truncated (not freed) between flows.
	hops []hopStat
	path []event.NodeID
	loop bool
}

// hopStat accumulates one (sender, receiver) hop's evidence: receptions
// logged or inferred on the hop, sent-reaching visits that transmitted over
// it, and whether the hop has carried the packet (the Path traversal rule).
type hopStat struct {
	s, r       event.NodeID
	recv, sent int32
	traversed  bool
}

// NewClassifier returns a classifier with empty scratch.
func NewClassifier() *Classifier { return &Classifier{} }

// isLive reports whether a state means "the node still holds the packet".
func isLive(state string) bool {
	switch state {
	case fsm.StateHas, fsm.StateReceived, fsm.StateQueued, fsm.StateDispatched, fsm.StateSent:
		return true
	}
	return false
}

// isSentReaching reports whether a state implies the visit transmitted at
// least once.
func isSentReaching(state string) bool {
	switch state {
	case fsm.StateSent, fsm.StateAcked, fsm.StateTimedOut:
		return true
	}
	return false
}

// dropCause maps a terminal drop state to its cause, Delivered (never a
// drop cause) for every other state.
func dropCause(state string) Cause {
	switch state {
	case fsm.StateTimedOut:
		return TimeoutLoss
	case fsm.StateDupDrop:
		return DupLoss
	case fsm.StateOverflow:
		return OverflowLoss
	}
	return Delivered
}

// hop returns the stat record for (s, r), materializing it on first touch.
// Flows cross a handful of hops, so linear search beats any map.
func (c *Classifier) hop(s, r event.NodeID) *hopStat {
	for i := range c.hops {
		if c.hops[i].s == s && c.hops[i].r == r {
			return &c.hops[i]
		}
	}
	c.hops = append(c.hops, hopStat{s: s, r: r})
	return &c.hops[len(c.hops)-1]
}

// hopTraversed reads the traversal flag without materializing the hop.
func (c *Classifier) hopTraversed(s, r event.NodeID) bool {
	for i := range c.hops {
		if c.hops[i].s == s && c.hops[i].r == r {
			return c.hops[i].traversed
		}
	}
	return false
}

// pushPath appends a node to the custody path (consecutive duplicates
// collapsed), flagging a loop when the node already appears earlier — the
// in-place equivalent of flow.Path + flow.HasLoop.
func (c *Classifier) pushPath(n event.NodeID) {
	if n == event.NoNode || (len(c.path) > 0 && c.path[len(c.path)-1] == n) {
		return
	}
	for _, p := range c.path {
		if p == n {
			c.loop = true
			break
		}
	}
	c.path = append(c.path, n)
}

// lastIdx returns the last position of n in the path, -1 if absent.
func (c *Classifier) lastIdx(n event.NodeID) int {
	for i := len(c.path) - 1; i >= 0; i-- {
		if c.path[i] == n {
			return i
		}
	}
	return -1
}

// arrival handles receiver-side custody exactly like flow.Path: forward
// progress when the receiver is new; a loop return only when the sender
// demonstrably sits downstream of the receiver's earlier appearance.
func (c *Classifier) arrival(s, r event.NodeID) {
	ri := c.lastIdx(r)
	if ri < 0 {
		c.pushPath(r)
		return
	}
	if si := c.lastIdx(s); si >= 0 && si > ri {
		c.pushPath(r) // genuine loop closure
	}
}

// Classify diagnoses a single reconstructed flow without outage knowledge,
// with the same case analysis as the package-level Classify (whose rules it
// implements; see that doc comment): one pass over the items builds the loss
// time, the delivery verdict, the per-hop reception counts and the custody
// path, then two passes over the visit summaries pick the packet's frontier.
//
//refill:noalloc — 0 allocs/op steady-state, benchguard-pinned; scratch grows only via append
func (c *Classifier) Classify(f *flow.Flow) Outcome {
	out := Outcome{Packet: f.Packet, Cause: Unknown, Position: event.NoNode, Toward: event.NoNode}
	c.hops = c.hops[:0]
	c.path = c.path[:0]
	c.loop = false

	delivered := false
	var lastT int64
	anyLogged := false
	c.pushPath(f.Packet.Origin)
	for i := range f.Items {
		e := &f.Items[i].Event
		if !f.Items[i].Inferred && e.Time >= lastT {
			lastT = e.Time
			anyLogged = true
		}
		switch e.Type {
		case event.Gen, event.Enqueue, event.Dequeue:
			c.pushPath(e.Sender)
		case event.Recv, event.ServerRecv, event.Dup, event.Overflow:
			if e.Type == event.ServerRecv {
				delivered = true
			}
			h := c.hop(e.Sender, e.Receiver)
			if e.Type != event.ServerRecv {
				h.recv++
			}
			first := !h.traversed
			h.traversed = true
			if first || e.Type == event.Recv || e.Type == event.ServerRecv {
				c.arrival(e.Sender, e.Receiver)
			}
		case event.Trans:
			if !c.hopTraversed(e.Sender, e.Receiver) {
				c.pushPath(e.Sender)
			}
		}
	}
	out.LossTime, out.TimeValid = lastT, anyLogged
	out.Loop = c.loop
	if delivered {
		out.Cause = Delivered
		out.Position = event.Server
		return out
	}

	// Count sent-reaching visits per hop, so a visit stuck at Sent whose
	// transmissions all demonstrably arrived can be recognized as
	// superseded (the sender merely lost its ack log).
	for i := range f.Visits {
		v := &f.Visits[i]
		if v.Peer != event.NoNode && isSentReaching(v.State) {
			c.hop(v.Node, v.Peer).sent++
		}
	}

	var lastLive, lastDrop *flow.Visit
	for i := range f.Visits {
		v := &f.Visits[i]
		if isLive(v.State) {
			if v.State == fsm.StateSent && v.Peer != event.NoNode {
				if h := c.hop(v.Node, v.Peer); h.recv >= h.sent {
					continue // superseded: the frontier is downstream
				}
			}
			if lastLive == nil || v.LastPos > lastLive.LastPos {
				lastLive = v
			}
		} else if dropCause(v.State) != Delivered {
			if lastDrop == nil || v.LastPos > lastDrop.LastPos {
				lastDrop = v
			}
		}
	}
	switch {
	case lastLive != nil:
		out.Position = lastLive.Node
		switch lastLive.State {
		case fsm.StateSent:
			out.Cause = TransitLoss
			out.Toward = lastLive.Peer
		case fsm.StateReceived:
			if lastLive.RecvInferred {
				out.Cause = AckedLoss
			} else {
				out.Cause = ReceivedLoss
			}
		case fsm.StateHas, fsm.StateQueued, fsm.StateDispatched:
			// Held inside the node (generated or queued) and never
			// transmitted onward: an in-node loss.
			out.Cause = ReceivedLoss
		}
	case lastDrop != nil:
		out.Position = lastDrop.Node
		out.Cause = dropCause(lastDrop.State)
		if lastDrop.State == fsm.StateTimedOut {
			out.Toward = lastDrop.Peer
		}
	}
	return out
}

// classifiers is the free list behind Classify, under classifiersMu: a
// sync.Pool would drop its classifiers at every GC cycle. A classifier taken
// off it belongs to one Classify call until that call puts it back.
var (
	classifiersMu sync.Mutex
	//refill:allow shardowner — free list under classifiersMu: a listed classifier is in no caller's hands
	classifiers []*Classifier
)

// Classify diagnoses a single reconstructed flow without outage knowledge
// (see Report for the outage-aware pipeline).
//
// The rules follow Section IV-C's case analyses:
//   - a delivered packet (server record) is Delivered;
//   - otherwise the LATEST live visit (a node still holding the packet)
//     locates the loss: Sent means the packet vanished in transit; Received
//     means it died inside the node — an AckedLoss when the reception itself
//     had to be inferred from the sender's ACK, a ReceivedLoss when logged;
//   - with no live visit, the latest terminal drop (timeout, duplicate,
//     overflow) is the cause;
//   - with no visits at all the flow is Unknown.
//
// A visit stuck at Sent whose transmission demonstrably arrived (the flow
// carries a matching reception for every Sent-reaching visit on that hop) is
// superseded: the sender merely never learned — its ack log was lost — and
// the packet's real frontier is downstream.
func Classify(f *flow.Flow) Outcome {
	var c *Classifier
	classifiersMu.Lock()
	if k := len(classifiers); k > 0 {
		//refill:allow shardowner — taken off the free list under classifiersMu: this call owns it now
		c, classifiers = classifiers[k-1], classifiers[:k-1]
	}
	classifiersMu.Unlock()
	if c == nil {
		c = NewClassifier()
	}
	out := c.Classify(f)
	classifiersMu.Lock()
	//refill:allow shardowner — put back under classifiersMu; this call does not touch it again
	classifiers = append(classifiers, c)
	classifiersMu.Unlock()
	return out
}
