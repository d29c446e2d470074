// Package diagnosis turns reconstructed event flows into the paper's
// network-diagnosis products: per-packet loss cause and loss position
// (Section V-B/V-C), with spatial, temporal and daily aggregations backing
// Figures 4, 5, 6, 8 and 9.
package diagnosis

import (
	"fmt"
	"sort"

	"repro/internal/event"
)

// Cause is the packet-loss taxonomy of Section V-C.
type Cause uint8

const (
	// Delivered: the packet reached the base-station server (not a loss).
	Delivered Cause = iota
	// ReceivedLoss: the last custody evidence is a LOGGED reception — the
	// packet vanished inside the node after the recv log point (task
	// failure, serial cable, …).
	ReceivedLoss
	// AckedLoss: the sender holds a hardware ACK but the receiver never
	// logged the reception (the engine had to infer it): the packet died
	// between the radio and the upper layer.
	AckedLoss
	// TimeoutLoss: the sender exhausted its retransmission budget.
	TimeoutLoss
	// DupLoss: the packet's final fate was a duplicate-suppression drop
	// (routing loops).
	DupLoss
	// OverflowLoss: dropped for lack of queue space.
	OverflowLoss
	// TransitLoss: the last evidence is an unacknowledged transmission —
	// the packet is "in flight" with no record of arrival or timeout.
	TransitLoss
	// ServerOutage: the packet reached the sink but the base-station
	// server was down (classified with the outage schedule, exactly as
	// the paper excluded server-outage losses before the REFILL split).
	ServerOutage
	// Unknown: the flow carries no classifiable evidence.
	Unknown

	numCauses
)

var causeNames = [...]string{
	Delivered:    "delivered",
	ReceivedLoss: "received",
	AckedLoss:    "acked",
	TimeoutLoss:  "timeout",
	DupLoss:      "dup",
	OverflowLoss: "overflow",
	TransitLoss:  "transit",
	ServerOutage: "outage",
	Unknown:      "unknown",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// allCauses is the precomputed presentation-order cause list.
var allCauses = func() []Cause {
	out := make([]Cause, numCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}()

// Causes lists every cause in presentation order. The returned slice is
// shared — treat it as read-only.
func Causes() []Cause { return allCauses }

// Outcome is the diagnosis of one packet.
type Outcome struct {
	Packet event.PacketID
	Cause  Cause
	// Position is the node where the loss happened (event.NoNode when not
	// attributable; event.Server for server-side outcomes).
	Position event.NodeID
	// Toward is the intended next hop for transit/timeout losses.
	Toward event.NodeID
	// LossTime approximates when the packet was lost: the time of the
	// last logged event about it (the paper uses a sequence-gap
	// approximation for the same purpose). TimeValid reports whether any
	// logged event carried a timestamp.
	LossTime  int64
	TimeValid bool
	// Loop reports whether the custody path revisited a node.
	Loop bool
}

// Window is a half-open interval [Start, End) of microseconds.
type Window struct {
	Start, End int64
}

// Covers reports whether t falls inside the window.
func (w Window) Covers(t int64) bool { return t >= w.Start && t < w.End }

// OutageSchedule is the set of base-station outage windows, reconstructed
// from the server's operational log (sdown/sup events).
//
// Covers assumes the canonical form — sorted by Start, non-overlapping —
// which OutagesFromOperational always produces; call Normalize on
// hand-assembled schedules before querying them.
type OutageSchedule []Window

// Covers reports whether any window covers t. Binary search over the
// canonical (sorted, non-overlapping) window list: only the last window
// starting at or before t can cover it.
func (s OutageSchedule) Covers(t int64) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Start > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo > 0 && t < s[lo-1].End
}

// Normalize sorts the windows by start time and merges overlapping or
// adjacent ones, returning the canonical schedule Covers requires. The
// receiver's backing array is reused; empty and single-window schedules are
// returned as-is.
func (s OutageSchedule) Normalize() OutageSchedule {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].End < s[j].End
	})
	out := s[:1]
	for _, w := range s[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// OutagesFromOperational reconstructs the outage schedule from server
// up/down events (ordered by time). A trailing down without an up extends to
// end (pass the campaign end time). The result is canonical (sorted,
// non-overlapping) even when the input ordering is not.
func OutagesFromOperational(ops []event.Event, end int64) OutageSchedule {
	var sched OutageSchedule
	start, open := pairOutages(ops, func(w Window) { sched = append(sched, w) })
	if open {
		sched = append(sched, Window{Start: start, End: end})
	}
	return sched.Normalize()
}

// OpenOutage reports whether ops (ordered by time) leave an outage open, and
// when it started: the window OutagesFromOperational would close at end.
func OpenOutage(ops []event.Event) (start int64, open bool) {
	return pairOutages(ops, func(Window) {})
}

// pairOutages is the one pairing rule for server up/down events, counted by
// nesting depth: a down at depth 0 opens an outage, every down deepens it,
// every up while one is open makes it shallower, and the up that brings the
// depth back to 0 closes it. Overlapping outage windows emit nested pairs,
// so the first up does not end the outage; an up with none open is ignored.
// Each closed window goes to closed; the outage still open at the end of
// ops, if any, is returned by its start — so a lost up holds the outage
// open to the campaign end.
func pairOutages(ops []event.Event, closed func(Window)) (start int64, open bool) {
	depth := 0
	for _, e := range ops {
		switch {
		case e.Type == event.ServerDown:
			if depth == 0 {
				start = e.Time
			}
			depth++
		case e.Type == event.ServerUp && depth > 0:
			if depth--; depth == 0 {
				closed(Window{Start: start, End: e.Time})
			}
		}
	}
	return start, depth > 0
}

// ApplyOutages reclassifies losses at the sink that fall inside an outage
// window as ServerOutage — mirroring the paper's methodology of accounting
// for base-station downtime (22.6% of losses) before the REFILL breakdown.
func ApplyOutages(out Outcome, sched OutageSchedule, sink event.NodeID) Outcome {
	if out.Cause != ReceivedLoss && out.Cause != AckedLoss {
		return out
	}
	if out.Position != sink || !out.TimeValid {
		return out
	}
	if sched.Covers(out.LossTime) {
		out.Cause = ServerOutage
		out.Position = event.Server
	}
	return out
}
