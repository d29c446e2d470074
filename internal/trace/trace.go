// Package trace renders per-packet tracing information from reconstructed
// event flows — the paper's "detailed per-packet tracing based on event
// flows": the path the packet took, per-hop attempts, loops, and where it
// ended up.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// HopReport summarizes one hop of a packet's journey.
type HopReport struct {
	Sender, Receiver event.NodeID
	// Attempts is the number of transmissions seen (logged + inferred).
	Attempts int
	// Acked reports whether an acknowledgement was recorded/inferred.
	Acked bool
	// Arrived reports whether any reception (recv/dup/overflow) exists.
	Arrived bool
	// Inferred reports whether any of the hop's evidence was inferred.
	Inferred bool
}

// Trace is the per-packet tracing product.
type Trace struct {
	Packet  event.PacketID
	Path    []event.NodeID
	Hops    []HopReport
	Loop    bool
	Outcome diagnosis.Outcome
	// InferredEvents counts events the engine had to reconstruct.
	InferredEvents int
}

// Build derives a Trace from a reconstructed flow.
func Build(f *flow.Flow) *Trace {
	t := &Trace{
		Packet:         f.Packet,
		Path:           f.Path(),
		Loop:           f.HasLoop(),
		Outcome:        diagnosis.Classify(f),
		InferredEvents: f.InferredCount(),
	}
	type hopKey struct{ s, r event.NodeID }
	hops := make(map[hopKey]*HopReport)
	var order []hopKey
	get := func(s, r event.NodeID) *HopReport {
		k := hopKey{s, r}
		h, ok := hops[k]
		if !ok {
			h = &HopReport{Sender: s, Receiver: r}
			hops[k] = h
			order = append(order, k)
		}
		return h
	}
	for _, it := range f.Items {
		e := it.Event
		switch e.Type {
		case event.Trans:
			h := get(e.Sender, e.Receiver)
			h.Attempts++
			h.Inferred = h.Inferred || it.Inferred
		case event.AckRecvd:
			h := get(e.Sender, e.Receiver)
			h.Acked = true
			h.Inferred = h.Inferred || it.Inferred
		case event.Recv, event.Dup, event.Overflow:
			h := get(e.Sender, e.Receiver)
			h.Arrived = true
			h.Inferred = h.Inferred || it.Inferred
		}
	}
	for _, k := range order {
		t.Hops = append(t.Hops, *hops[k])
	}
	return t
}

// PathString renders "1 -> 2 -> 3 -> server".
func (t *Trace) PathString() string {
	parts := make([]string, len(t.Path))
	for i, n := range t.Path {
		parts[i] = n.String()
	}
	return strings.Join(parts, " -> ")
}

// String renders a multi-line human-readable trace.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet %s\n", t.Packet)
	fmt.Fprintf(&b, "  path: %s", t.PathString())
	if t.Loop {
		b.WriteString("  (LOOP)")
	}
	b.WriteByte('\n')
	for _, h := range t.Hops {
		mark := ""
		if h.Inferred {
			mark = " [partly inferred]"
		}
		status := "in flight"
		switch {
		case h.Acked && h.Arrived:
			status = "delivered+acked"
		case h.Acked:
			status = "acked"
		case h.Arrived:
			status = "arrived unacked"
		}
		fmt.Fprintf(&b, "  hop %s-%s: %d attempt(s), %s%s\n",
			h.Sender, h.Receiver, h.Attempts, status, mark)
	}
	out := t.Outcome
	if out.Cause == diagnosis.Delivered {
		fmt.Fprintf(&b, "  outcome: delivered (%d inferred events)\n", t.InferredEvents)
	} else {
		fmt.Fprintf(&b, "  outcome: %s loss at %s (%d inferred events)\n",
			out.Cause, out.Position, t.InferredEvents)
	}
	return b.String()
}

// BuildAll traces every flow, ordered by packet ID.
func BuildAll(flows []*flow.Flow) []*Trace {
	out := make([]*Trace, 0, len(flows))
	for _, f := range flows {
		out = append(out, Build(f))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Packet.Less(out[j].Packet) })
	return out
}

// Loops filters traces with routing loops.
func Loops(traces []*Trace) []*Trace {
	var out []*Trace
	for _, t := range traces {
		if t.Loop {
			out = append(out, t)
		}
	}
	return out
}
