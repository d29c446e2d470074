// Package event defines the event model underlying REFILL.
//
// An event is the paper's tuple E = (V, L, I): an event type V, the location
// (node) L where the event was logged, and related information I — here the
// sender/receiver pair and the identity of the packet the event concerns.
// Event occurrence time is NOT part of the model the inference engine sees:
// logs from different nodes are unsynchronized, so only the per-node order of
// events carries information. A Time field is carried for ground-truth
// bookkeeping and for the baseline analyzers that approximate loss times, but
// the REFILL engine never orders events by it.
package event

import (
	"fmt"
	"strconv"
)

// NodeID identifies a node in the network. IDs are assigned by the
// deployment and need not be small or dense: nothing is sized by the largest
// ID seen, only by the number of distinct ones. Two IDs are reserved for the
// infrastructure behind the sink (the "last mile" the paper's Section V-D4
// discusses).
type NodeID uint32

const (
	// NoNode is the zero NodeID, used when a role is not applicable
	// (for example the receiver of a generation event).
	NoNode NodeID = 0
	// Server is the pseudo-node for the base-station server reached over
	// the sink's serial cable and the mesh backbone.
	Server NodeID = 0xFFFFFFFE
)

// String renders a NodeID; infrastructure pseudo-nodes get symbolic names.
func (n NodeID) String() string {
	switch n {
	case NoNode:
		return "-"
	case Server:
		return "server"
	default:
		return strconv.FormatUint(uint64(n), 10)
	}
}

// ParseNodeID parses the representation produced by NodeID.String.
func ParseNodeID(s string) (NodeID, error) { return nodeField([]byte(s)) }

// PacketID identifies a data packet end to end: the node that originated it
// and the origin-local sequence number. CTP data frames carry exactly this
// pair (origin + THL/seqno), which is what lets per-node log lines about the
// same packet be associated across nodes.
type PacketID struct {
	Origin NodeID
	Seq    uint32
}

// Less is the deterministic packet order every analysis path returns flows,
// outcomes and traces in: origin, then sequence.
func (p PacketID) Less(q PacketID) bool {
	if p.Origin != q.Origin {
		return p.Origin < q.Origin
	}
	return p.Seq < q.Seq
}

// String renders a PacketID as "origin:seq".
func (p PacketID) String() string {
	return p.Origin.String() + ":" + strconv.FormatUint(uint64(p.Seq), 10)
}

// ParsePacketID parses the representation produced by PacketID.String.
func ParsePacketID(s string) (PacketID, error) { return packetField([]byte(s)) }

// Type is the event type V. The set mirrors the paper's Table I (recv,
// overflow, dup, trans, ack recvd) plus the events needed to model the full
// CitySee pipeline: packet generation at the origin, retransmission timeout
// at the sender, and the sink-to-server last mile.
type Type uint8

const (
	// Invalid is the zero Type and never appears in a valid event.
	Invalid Type = iota

	// Gen records that the node generated (originated) the packet, e.g. a
	// periodic sensor reading entering the network. Logged on the origin.
	Gen

	// Recv records that the packet from Sender was received at Receiver
	// and handed to the upper layer. Logged on the receiver. ("n1-n2 recv")
	Recv

	// Overflow records that there was no queue space at Receiver for the
	// packet from Sender, so the packet was discarded. Logged on the
	// receiver. ("n1-n2 overflow")
	Overflow

	// Dup records that a duplicated packet was received by Receiver from
	// Sender and discarded; duplication is typically caused by routing
	// loops or by retransmissions whose ACK was lost. Logged on the
	// receiver. ("n1-n2 dup")
	Dup

	// Trans records that the packet was transmitted by Sender to
	// Receiver. Logged on the sender. One Trans is logged per
	// link-layer transmission attempt. ("n1-n2 trans")
	Trans

	// AckRecvd records that the packet from Sender to Receiver was
	// acknowledged, i.e. the hardware acknowledgement was received by the
	// sender. Logged on the sender. With hardware ACKs this implies
	// PHY-level reception at the receiver but NOT upper-layer delivery —
	// the distinction behind the paper's "acked loss". ("n1-n2 ack recvd")
	AckRecvd

	// Timeout records that the sender exhausted its retransmission budget
	// for the packet toward Receiver and dropped it. Logged on the sender.
	Timeout

	// ServerRecv records that the base-station server stored the packet,
	// i.e. the packet survived the sink's serial cable and the backbone.
	// Logged on the Server pseudo-node.
	ServerRecv

	// ServerDown and ServerUp bracket base-station outage windows. They
	// are operational events (no packet attached) logged on Server.
	ServerDown
	ServerUp

	// Enqueue and Dequeue record the packet entering/leaving the node's
	// forwarding queue. Node-local events (the paper's future work of
	// "including more events"); logged on the node holding the packet,
	// with Sender = the node and no receiver.
	Enqueue
	Dequeue

	// Bcast, Resp and Done belong to the dissemination protocol family
	// (the paper's Figure 3(b)/(d) negotiation scenarios): a seeder
	// broadcasts an item (Bcast, node-local: no single receiver), each
	// member responds (Resp, sender-side: member -> seeder), and the
	// seeder completes once every member responded (Done, node-local —
	// its prerequisite spans the whole group).
	Bcast
	Resp
	Done

	numTypes
)

// NumTypes is the number of defined event types (including Invalid). It sizes
// dense per-type lookup tables in packages that would otherwise pay a map
// access per event.
const NumTypes = int(numTypes)

var typeNames = [...]string{
	Invalid:    "invalid",
	Gen:        "gen",
	Recv:       "recv",
	Overflow:   "overflow",
	Dup:        "dup",
	Trans:      "trans",
	AckRecvd:   "ack",
	Timeout:    "timeout",
	ServerRecv: "srecv",
	ServerDown: "sdown",
	ServerUp:   "sup",
	Enqueue:    "enq",
	Dequeue:    "deq",
	Bcast:      "bcast",
	Resp:       "resp",
	Done:       "done",
}

// String returns the short lowercase name used in the log text format.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "type(" + strconv.Itoa(int(t)) + ")"
}

// ParseType parses the representation produced by Type.String.
func ParseType(s string) (Type, error) { return typeField([]byte(s)) }

// Valid reports whether t is one of the defined event types.
func (t Type) Valid() bool { return t > Invalid && t < numTypes }

// SenderSide reports whether events of this type are logged on the sending
// node of the operation (Trans, AckRecvd, Timeout, Resp); receiver-side
// events (Recv, Overflow, Dup, ServerRecv) are logged on the receiving node.
func (t Type) SenderSide() bool {
	switch t {
	case Trans, AckRecvd, Timeout, Resp:
		return true
	}
	return false
}

// NodeLocal reports whether events of this type concern only the logging
// node itself (no single peer): generation, queue operations, broadcasts and
// group-completion markers.
func (t Type) NodeLocal() bool {
	switch t {
	case Gen, Enqueue, Dequeue, Bcast, Done:
		return true
	}
	return false
}

// PacketScoped reports whether events of this type concern a specific packet.
// Operational events such as ServerDown/ServerUp are not packet scoped.
func (t Type) PacketScoped() bool {
	switch t {
	case ServerDown, ServerUp:
		return false
	}
	return t.Valid()
}

// Event is one logged occurrence: the tuple (V, L, I) with V = Type,
// L = Node, and I = {Sender, Receiver, Packet, Info}. Time is ground-truth /
// local-clock metadata only (see the package comment).
type Event struct {
	// Node is the node whose log contains this event (the location L).
	Node NodeID
	// Type is the event type V.
	Type Type
	// Sender and Receiver identify the network operation's endpoints.
	// For Gen events Receiver is NoNode; for ServerDown/Up both are NoNode.
	Sender   NodeID
	Receiver NodeID
	// Packet identifies the packet the event concerns (zero value for
	// non-packet-scoped events).
	Packet PacketID
	// Time is the timestamp attached by whoever recorded the event: the
	// simulator's global clock for ground truth, or a node's skewed local
	// clock for collected logs. Units are microseconds.
	Time int64
	// Info carries free-form related information and is not interpreted
	// by the inference engine.
	Info string
}

// Key returns the (type, sender, receiver, packet) tuple identifying what the
// event asserts, independent of where/when it was logged. Two events with the
// same Key describe the same network operation (possibly distinct attempts).
type Key struct {
	Type     Type
	Sender   NodeID
	Receiver NodeID
	Packet   PacketID
}

// Key returns e's Key.
func (e Event) Key() Key {
	return Key{Type: e.Type, Sender: e.Sender, Receiver: e.Receiver, Packet: e.Packet}
}

// Pair renders the paper's "n1-n2" sender-receiver prefix (just the node for
// node-local events).
func (e Event) Pair() string {
	if e.Type.NodeLocal() {
		return e.Sender.String()
	}
	return e.Sender.String() + "-" + e.Receiver.String()
}

// String renders the event in the paper's notation, e.g. "1-2 trans".
func (e Event) String() string {
	if !e.Type.PacketScoped() {
		return e.Node.String() + " " + e.Type.String()
	}
	return e.Pair() + " " + e.Type.String()
}

// Equal reports whether two events are identical in all semantic fields
// (Time and Info excluded: the engine treats events with equal keys logged at
// the same node as the same occurrence class).
func (e Event) Equal(o Event) bool {
	return e.Node == o.Node && e.Key() == o.Key()
}

// Validate checks structural invariants: the type is known, the event is
// logged on the side its type dictates, and endpoint roles are present.
func (e Event) Validate() error {
	if !e.Type.Valid() {
		return fmt.Errorf("event: invalid type in %+v", e)
	}
	switch e.Type {
	case Gen:
		if e.Node != e.Sender {
			return fmt.Errorf("event: gen must be logged on the origin: %v", e)
		}
		if e.Packet.Origin != e.Node {
			return fmt.Errorf("event: gen packet origin %v != node %v", e.Packet.Origin, e.Node)
		}
	case Enqueue, Dequeue, Bcast, Done:
		if e.Node != e.Sender {
			return fmt.Errorf("event: %v must be logged on the holding node: %v", e.Type, e)
		}
	case Trans, AckRecvd, Timeout, Resp:
		if e.Node != e.Sender {
			return fmt.Errorf("event: %v must be logged on the sender: %v", e.Type, e)
		}
		if e.Receiver == NoNode {
			return fmt.Errorf("event: %v missing receiver: %v", e.Type, e)
		}
	case Recv, Overflow, Dup:
		if e.Node != e.Receiver {
			return fmt.Errorf("event: %v must be logged on the receiver: %v", e.Type, e)
		}
		if e.Sender == NoNode {
			return fmt.Errorf("event: %v missing sender: %v", e.Type, e)
		}
	case ServerRecv:
		if e.Node != Server || e.Receiver != Server {
			return fmt.Errorf("event: srecv must be logged on the server: %v", e)
		}
	case ServerDown, ServerUp:
		if e.Node != Server {
			return fmt.Errorf("event: %v must be logged on the server: %v", e.Type, e)
		}
	}
	return nil
}
