package fsm

import (
	"fmt"

	"repro/internal/event"
)

// Canonical state names. Prerequisite links refer to states by name because
// the peer node may run a different template graph (an origin has no
// "Received" edge from Start, a sink never reaches "Sent").
const (
	StateStart      = "Start"
	StateHas        = "Has"        // origin holds a freshly generated packet
	StateReceived   = "Received"   // upper layer accepted the packet
	StateQueued     = "Queued"     // sitting in the forwarding queue (extended)
	StateDispatched = "Dispatched" // pulled from the queue, about to send (extended)
	StateSent       = "Sent"       // at least one transmission attempted
	StateAcked      = "Acked"      // hardware ACK received; custody passed on
	StateTimedOut   = "TimedOut"   // retransmission budget exhausted; dropped
	StateDupDrop    = "DupDropped"
	StateOverflow   = "OverflowDropped"
	StateStored     = "Stored" // base-station server persisted the packet
)

// Prereq is the paper's Definition 4.1 materialized at the protocol level:
// when an event of a given type occurs, the peer engine (for the same packet)
// must already have passed StateName. Driving the peer engine to that state —
// consuming its logged events or inferring lost ones — is how inference
// engines of different nodes are connected.
type Prereq struct {
	// PeerRole names which endpoint of the event hosts the prerequisite
	// engine: SelfSender means the event's sender, SelfReceiver its
	// receiver. (E.g. recv at the receiver requires the *sender* at Sent.)
	PeerRole Role
	// Group widens the prerequisite to EVERY member of the engine group
	// (minus the event's own node) — the paper's many-to-1 inter-node
	// transitions of Figure 3(c)/(d): a seeder's completion event
	// requires all members to have responded. When Group is set PeerRole
	// is ignored; the engine must be configured with the group roster.
	Group bool
	// AnyOf lists the state names (resolved against the peer engine's own
	// graph) any one of which satisfies the prerequisite. Multiple names
	// capture operations witnessed by several states: a hardware ACK
	// proves PHY-level reception, which surfaces as Received, DupDropped
	// or OverflowDropped depending on what the upper layer did next.
	AnyOf []string
	// InferTo is the state driven to when the prerequisite has to be
	// inferred outright (no logged evidence at the peer). It is the
	// default reading of the operation — for an ACK, plain reception.
	InferTo string
}

// NodeRole classifies what template a node's engine uses for a given packet.
type NodeRole uint8

const (
	// RoleOrigin: the node generated the packet.
	RoleOrigin NodeRole = iota + 1
	// RoleForward: an intermediate node relaying the packet toward the sink.
	RoleForward
	// RoleSink: the collection-tree root; hands packets to the server over
	// the serial cable.
	RoleSink
	// RoleServer: the base-station server pseudo-node.
	RoleServer
)

func (r NodeRole) String() string {
	switch r {
	case RoleOrigin:
		return "origin"
	case RoleForward:
		return "forward"
	case RoleSink:
		return "sink"
	case RoleServer:
		return "server"
	}
	return fmt.Sprintf("noderole(%d)", uint8(r))
}

// Protocol bundles everything the connected inference engines need: one
// template graph per node role, the inter-node prerequisite semantics, and
// self-prerequisites (intra-node correlations that reach across visits, such
// as "a duplicate implies this node received the packet before").
type Protocol struct {
	name        string
	graphs      [RoleServer + 1]*Graph // indexed by role; index 0 is unused
	prereqs     map[event.Type]Prereq
	selfPrereqs map[event.Type]Prereq
}

// Name returns the protocol's name.
func (p *Protocol) Name() string { return p.name }

// Graph returns the template for a role (nil only for a NodeRole outside the
// four NewProtocol requires).
func (p *Protocol) Graph(role NodeRole) *Graph {
	if int(role) >= len(p.graphs) {
		return nil
	}
	return p.graphs[role]
}

// Prereq returns the prerequisite rule for an event type, if any.
func (p *Protocol) Prereq(t event.Type) (Prereq, bool) {
	pr, ok := p.prereqs[t]
	return pr, ok
}

// SelfPrereq returns the self-prerequisite for an event type, if any: a state
// some visit of the SAME node must have passed before the event is possible.
// A duplicate-suppression record is the canonical case — the packet can only
// be in the node's cache because an earlier visit accepted it, so a dup with
// no surviving recv record implies the recv was lost from the log.
func (p *Protocol) SelfPrereq(t event.Type) (Prereq, bool) {
	pr, ok := p.selfPrereqs[t]
	return pr, ok
}

// roles lists the node roles every protocol supplies a template for.
var roles = [...]NodeRole{RoleOrigin, RoleForward, RoleSink, RoleServer}

// NewProtocol assembles a protocol from role templates and prerequisites.
// Every role needs a graph — the engine opens a visit on whichever template
// a node's role selects — and every referenced prerequisite state name must
// exist in at least one of them.
func NewProtocol(name string, graphs map[NodeRole]*Graph, prereqs map[event.Type]Prereq) (*Protocol, error) {
	for _, role := range roles {
		if graphs[role] == nil {
			return nil, fmt.Errorf("fsm: protocol %q has no %v graph", name, role)
		}
	}
	// Ascending event-type order so the same malformed table always yields
	// the same first error.
	for ti := 0; ti < event.NumTypes; ti++ {
		t := event.Type(ti)
		pr, ok := prereqs[t]
		if !ok {
			continue
		}
		names := append([]string{pr.InferTo}, pr.AnyOf...)
		for _, want := range names {
			found := false
			for _, role := range roles {
				if graphs[role].StateByName(want) != NoState {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("fsm: protocol %q: prereq for %v names unknown state %q", name, t, want)
			}
		}
	}
	p := &Protocol{name: name, prereqs: prereqs}
	for _, role := range roles {
		p.graphs[role] = graphs[role]
	}
	return p, nil
}

// WithSelfPrereqs attaches self-prerequisite rules (builder-style).
func (p *Protocol) WithSelfPrereqs(rules map[event.Type]Prereq) *Protocol {
	p.selfPrereqs = rules
	return p
}

// ctpPrereqs is the inter-node semantics of the CitySee stack:
//
//   - recv/dup/overflow at the receiver imply the sender transmitted
//     (sender passed Sent);
//   - a hardware ACK at the sender implies PHY-level reception at the
//     receiver (receiver passed Received) — but NOT any further progress,
//     which is exactly what makes "acked loss" diagnosable;
//   - the server storing a packet implies the sink received it.
func ctpPrereqs() map[event.Type]Prereq {
	phyRecv := []string{StateReceived, StateDupDrop, StateOverflow}
	return map[event.Type]Prereq{
		event.Recv:       {PeerRole: SelfSender, AnyOf: []string{StateSent}, InferTo: StateSent},
		event.Dup:        {PeerRole: SelfSender, AnyOf: []string{StateSent}, InferTo: StateSent},
		event.Overflow:   {PeerRole: SelfSender, AnyOf: []string{StateSent}, InferTo: StateSent},
		event.AckRecvd:   {PeerRole: SelfReceiver, AnyOf: phyRecv, InferTo: StateReceived},
		event.ServerRecv: {PeerRole: SelfSender, AnyOf: phyRecv, InferTo: StateReceived},
	}
}

// forwardGraph builds the relay-node template:
//
//	Start --recv--> Received --trans--> Sent --ack--> Acked
//	                              Sent --trans--> Sent (retransmission)
//	                              Sent --timeout--> TimedOut
//	Start --dup--> DupDropped     Start --overflow--> OverflowDropped
//
// With extended=true (the paper's "more events" future work) the queue
// life cycle is logged too:
//
//	Received --enq--> Queued --deq--> Dispatched --trans--> Sent
func forwardGraph(extended bool) (*Graph, error) {
	name := "ctp-forward"
	if extended {
		name = "ctp-forward-ext"
	}
	b := NewBuilder(name)
	start := b.State(StateStart, false)
	received := b.State(StateReceived, false)
	pre := received
	if extended {
		queued := b.State(StateQueued, false)
		dispatched := b.State(StateDispatched, false)
		b.Transition(received, queued, On(event.Enqueue, SelfSender))
		b.Transition(queued, dispatched, On(event.Dequeue, SelfSender))
		pre = dispatched
	}
	sent := b.State(StateSent, false)
	acked := b.State(StateAcked, true)
	timedOut := b.State(StateTimedOut, true)
	dup := b.State(StateDupDrop, true)
	overflow := b.State(StateOverflow, true)
	b.Start(start)
	b.Transition(start, received, On(event.Recv, SelfReceiver))
	b.Transition(start, dup, On(event.Dup, SelfReceiver))
	b.Transition(start, overflow, On(event.Overflow, SelfReceiver))
	b.Transition(pre, sent, On(event.Trans, SelfSender))
	b.Transition(sent, sent, On(event.Trans, SelfSender))
	b.Transition(sent, acked, On(event.AckRecvd, SelfSender))
	b.Transition(sent, timedOut, On(event.Timeout, SelfSender))
	return b.Finalize()
}

// originGraph builds the data-source template. withGen controls whether the
// protocol logs a generation event: the CitySee stack does (useful to the
// sink-view baseline), while the paper's Table II walkthrough does not — its
// origin goes straight from Start to Sent. extended adds the queue events.
func originGraph(withGen, extended bool) (*Graph, error) {
	name := "ctp-origin"
	if extended {
		name = "ctp-origin-ext"
	}
	b := NewBuilder(name)
	start := b.State(StateStart, false)
	var pre StateID = start
	if withGen {
		has := b.State(StateHas, false)
		b.Transition(start, has, On(event.Gen, SelfSender))
		pre = has
	}
	if extended {
		queued := b.State(StateQueued, false)
		dispatched := b.State(StateDispatched, false)
		b.Transition(pre, queued, On(event.Enqueue, SelfSender))
		b.Transition(queued, dispatched, On(event.Dequeue, SelfSender))
		pre = dispatched
	}
	sent := b.State(StateSent, false)
	acked := b.State(StateAcked, true)
	timedOut := b.State(StateTimedOut, true)
	b.Start(start)
	b.Transition(pre, sent, On(event.Trans, SelfSender))
	b.Transition(sent, sent, On(event.Trans, SelfSender))
	b.Transition(sent, acked, On(event.AckRecvd, SelfSender))
	b.Transition(sent, timedOut, On(event.Timeout, SelfSender))
	return b.Finalize()
}

// sinkGraph builds the collection-root template. The sink does not forward
// over the radio; its serial transfer to the server is unlogged on the sink
// side (the paper's flaky RS-232 cable), so Received is terminal here and
// delivery is witnessed only by the server's own srecv event.
func sinkGraph() (*Graph, error) {
	b := NewBuilder("ctp-sink")
	start := b.State(StateStart, false)
	received := b.State(StateReceived, true)
	dup := b.State(StateDupDrop, true)
	overflow := b.State(StateOverflow, true)
	b.Start(start)
	b.Transition(start, received, On(event.Recv, SelfReceiver))
	b.Transition(start, dup, On(event.Dup, SelfReceiver))
	b.Transition(start, overflow, On(event.Overflow, SelfReceiver))
	return b.Finalize()
}

// serverGraph builds the base-station server template.
func serverGraph() (*Graph, error) {
	b := NewBuilder("server")
	start := b.State(StateStart, false)
	stored := b.State(StateStored, true)
	b.Start(start)
	b.Transition(start, stored, On(event.ServerRecv, SelfReceiver))
	return b.Finalize()
}

func mustProtocol(name string, withGen, extended bool) *Protocol {
	fg, err := forwardGraph(extended)
	if err != nil {
		panic(err)
	}
	og, err := originGraph(withGen, extended)
	if err != nil {
		panic(err)
	}
	sg, err := sinkGraph()
	if err != nil {
		panic(err)
	}
	vg, err := serverGraph()
	if err != nil {
		panic(err)
	}
	p, err := NewProtocol(name, map[NodeRole]*Graph{
		RoleOrigin:  og,
		RoleForward: fg,
		RoleSink:    sg,
		RoleServer:  vg,
	}, ctpPrereqs())
	if err != nil {
		panic(err)
	}
	// A duplicate record means the packet is in the node's suppression
	// cache — an earlier visit must have accepted (received) it.
	return p.WithSelfPrereqs(map[event.Type]Prereq{
		event.Dup: {AnyOf: []string{StateReceived}, InferTo: StateReceived},
	})
}

// DefaultCTP returns the full CitySee protocol semantics: CTP data collection
// with logged generation events, hardware ACKs, bounded retransmissions, and
// the sink/server last mile.
func DefaultCTP() *Protocol { return mustProtocol("ctp", true, false) }

// TableII returns the protocol variant used by the paper's Table II
// walkthrough: identical to DefaultCTP except the origin does not log
// generation events, so reconstructed flows match the paper's line for line.
func TableII() *Protocol { return mustProtocol("ctp-tableii", false, false) }

// ExtendedCTP returns the richer-event variant the paper's future work
// envisions: queue enter/leave events are logged too, giving the engines
// finer in-node state (and REFILL more to infer when they are lost).
func ExtendedCTP() *Protocol { return mustProtocol("ctp-extended", true, true) }
