package logging

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/sim"
)

// Policy decides which events a node writes to its log at all — the paper's
// future work on "more efficient and effective logging methods". Policies
// trade log volume (flash wear, collection traffic) against diagnosability;
// the experiment harness quantifies the trade against ground truth.
//
// Policies may be stateful (e.g. first-transmission-only) and are consulted
// in emission order, which the simulator guarantees is deterministic.
type Policy interface {
	// Keep reports whether the node records the event.
	Keep(e event.Event) bool
	// Name identifies the policy in reports.
	Name() string
}

// FullPolicy logs everything (the default).
type FullPolicy struct{}

// Keep implements Policy.
func (FullPolicy) Keep(event.Event) bool { return true }

// Name implements Policy.
func (FullPolicy) Name() string { return "full" }

// SelectivePolicy drops per-attempt retransmission records: only the FIRST
// Trans of each (packet, hop) is logged. Retransmissions dominate log volume
// on bad links, and REFILL's inference recovers hop structure from the first
// attempt plus the receiver's records, so this is the natural economy mode.
type SelectivePolicy struct {
	seen map[hopKey]bool
}

type hopKey struct {
	pkt      event.PacketID
	from, to event.NodeID
}

// NewSelectivePolicy returns an empty selective policy.
func NewSelectivePolicy() *SelectivePolicy {
	return &SelectivePolicy{seen: make(map[hopKey]bool)}
}

// Keep implements Policy.
func (p *SelectivePolicy) Keep(e event.Event) bool {
	if e.Type != event.Trans {
		return true
	}
	k := hopKey{pkt: e.Packet, from: e.Sender, to: e.Receiver}
	if p.seen[k] {
		return false
	}
	p.seen[k] = true
	return true
}

// Name implements Policy.
func (p *SelectivePolicy) Name() string { return "selective" }

// SampledPolicy logs each event independently with probability P — the
// blunt instrument selective logging should beat.
type SampledPolicy struct {
	P   float64
	rng *sim.RNG
}

// NewSampledPolicy returns a sampler with its own seeded stream.
func NewSampledPolicy(p float64, seed int64) *SampledPolicy {
	return &SampledPolicy{P: p, rng: sim.NewRNG(seed)}
}

// Keep implements Policy.
func (p *SampledPolicy) Keep(event.Event) bool { return p.rng.Bool(p.P) }

// Name implements Policy.
func (p *SampledPolicy) Name() string { return fmt.Sprintf("sampled-%.0f%%", 100*p.P) }

// ReceiverSidePolicy logs only receiver-side and origin records (recv, dup,
// overflow, gen, server) and drops all sender-side ones (trans, ack,
// timeout) — a radical economy mode that leans entirely on inter-node
// inference to re-create the sending half.
type ReceiverSidePolicy struct{}

// Keep implements Policy.
func (ReceiverSidePolicy) Keep(e event.Event) bool { return !e.Type.SenderSide() }

// Name implements Policy.
func (ReceiverSidePolicy) Name() string { return "receiver-side" }
