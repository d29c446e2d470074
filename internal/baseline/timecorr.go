package baseline

import (
	"repro/internal/diagnosis"
	"repro/internal/event"
)

// TimeCorr implements the time-domain correlation method of Section V-D2:
// each loss is attributed to the DOMINANT anomaly (timeout, duplicate,
// overflow) logged anywhere in the network during the same time bin. The
// paper points out two failure modes this has and REFILL does not:
// concurrent distinct causes cannot be told apart, and minority causes are
// masked by whatever dominates the bin.
func TimeCorr(c *event.Collection, lost []LostPacket, bin int64) map[event.PacketID]Verdict {
	if bin <= 0 {
		bin = 1
	}
	// Histogram of anomaly events per bin (by local log timestamps —
	// correlation methods have nothing better).
	type binCounts map[diagnosis.Cause]int
	hist := make(map[int64]binCounts)
	bump := func(t int64, cause diagnosis.Cause) {
		b := t / bin
		m := hist[b]
		if m == nil {
			m = make(binCounts)
			hist[b] = m
		}
		m[cause]++
	}
	for _, n := range c.Nodes() {
		b := c.Logs[n].Batch()
		for i := 0; i < b.Len(); i++ {
			switch b.Type(i) {
			case event.Timeout:
				bump(b.Time(i), diagnosis.TimeoutLoss)
			case event.Dup:
				bump(b.Time(i), diagnosis.DupLoss)
			case event.Overflow:
				bump(b.Time(i), diagnosis.OverflowLoss)
			}
		}
	}
	out := make(map[event.PacketID]Verdict, len(lost))
	for _, lp := range lost {
		v := Verdict{Packet: lp.Packet, Cause: diagnosis.Unknown, Position: event.NoNode}
		if m := hist[lp.ApproxTime/bin]; len(m) > 0 {
			best := diagnosis.Unknown
			bestN := 0
			for _, cause := range diagnosis.Causes() {
				if n := m[cause]; n > bestN {
					best, bestN = cause, n
				}
			}
			v.Cause = best
		}
		out[lp.Packet] = v
	}
	return out
}

// WitStats quantifies how mergeable per-node logs are for a Wit-style
// common-event alignment: Wit synchronizes sniffer traces through packets
// recorded by multiple observers, which local logs almost never contain.
type WitStats struct {
	// Packets is the number of packets with any log records.
	Packets int
	// MultiNode is how many packets have records on 2+ nodes (a
	// prerequisite for needing alignment at all).
	MultiNode int
	// Mergeable is how many packets have at least one identical event
	// (same type, endpoints, packet) recorded on 2+ nodes — the common
	// events Wit aligns with.
	Mergeable int
}

// MergeableRate is Mergeable / MultiNode (0 when nothing is multi-node).
func (s WitStats) MergeableRate() float64 {
	if s.MultiNode == 0 {
		return 0
	}
	return float64(s.Mergeable) / float64(s.MultiNode)
}

// WitMergeability measures the collection.
func WitMergeability(c *event.Collection) WitStats {
	views, _ := event.Partition(c)
	var s WitStats
	for _, v := range views {
		s.Packets++
		if v.NodeCount() < 2 {
			continue
		}
		s.MultiNode++
		keyNodes := make(map[event.Key]event.NodeID)
		mergeable := false
		for _, sp := range v.Spans() {
			for i := sp.Start; i < sp.End; i++ {
				k := v.EventAt(sp.Node, int(i)).Key()
				if prev, ok := keyNodes[k]; ok && prev != sp.Node {
					mergeable = true
				} else {
					keyNodes[k] = sp.Node
				}
			}
		}
		if mergeable {
			s.Mergeable++
		}
	}
	return s
}
