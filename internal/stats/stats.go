// Package stats derives the per-packet performance measurements the paper
// says event flows reveal — "per-packet delay, packet retransmission, packet
// loss" — from reconstructed flows. End-to-end delay needs comparable
// timestamps; since per-node logs are unsynchronized, delays are computed on
// clock-corrected timestamps (see internal/clocksync), and the experiment
// harness quantifies how much the correction matters.
package stats

import (
	"sort"

	"repro/internal/clocksync"
	"repro/internal/event"
	"repro/internal/flow"
)

// PacketStats is one delivered packet's measured performance.
type PacketStats struct {
	Packet event.PacketID
	// Delay is the end-to-end latency from generation to server storage,
	// on corrected clocks, in microseconds.
	Delay int64
	// Hops is the custody path length (origin to sink).
	Hops int
	// Transmissions counts link-layer attempts across all hops.
	Transmissions int
	// Loop reports a routing loop on the way.
	Loop bool
}

// Compute measures every delivered flow that has both a logged generation
// and the server record. clocks may be nil (raw local timestamps — expect
// offset-polluted delays).
func Compute(flows []*flow.Flow, clocks *clocksync.Result) []PacketStats {
	var out []PacketStats
	for _, f := range flows {
		var genT, srvT int64
		var haveGen, haveSrv bool
		trans := 0
		for _, it := range f.Items {
			if it.Inferred {
				continue
			}
			e := it.Event
			switch e.Type {
			case event.Gen:
				t := e.Time
				if clocks != nil {
					t = clocks.Correct(e)
				}
				genT, haveGen = t, true
			case event.ServerRecv:
				srvT, haveSrv = e.Time, true // server clock is true time
			case event.Trans:
				trans++
			}
		}
		if !haveGen || !haveSrv {
			continue
		}
		out = append(out, PacketStats{
			Packet:        f.Packet,
			Delay:         srvT - genT,
			Hops:          len(f.Path()) - 1,
			Transmissions: trans,
			Loop:          f.HasLoop(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Packet.Less(out[j].Packet) })
	return out
}

// Summary aggregates packet measurements.
type Summary struct {
	Count int
	// Delay quantiles in microseconds.
	MeanDelay, P50Delay, P95Delay, MaxDelay int64
	// MeanTransmissions is the average attempt count per delivered packet.
	MeanTransmissions float64
	// MeanHops is the average path length.
	MeanHops float64
	// Loops counts looped-but-delivered packets.
	Loops int
}

// Summarize reduces packet stats to a summary (zero value for empty input).
func Summarize(ps []PacketStats) Summary {
	var s Summary
	if len(ps) == 0 {
		return s
	}
	delays := make([]int64, len(ps))
	var sumD, sumT, sumH int64
	for i, p := range ps {
		delays[i] = p.Delay
		sumD += p.Delay
		sumT += int64(p.Transmissions)
		sumH += int64(p.Hops)
		if p.Loop {
			s.Loops++
		}
		if p.Delay > s.MaxDelay {
			s.MaxDelay = p.Delay
		}
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	s.Count = len(ps)
	s.MeanDelay = sumD / int64(len(ps))
	s.P50Delay = delays[len(delays)/2]
	s.P95Delay = delays[len(delays)*95/100]
	s.MeanTransmissions = float64(sumT) / float64(len(ps))
	s.MeanHops = float64(sumH) / float64(len(ps))
	return s
}

// DelayError scores measured delays against true delays: the median absolute
// error over packets present in both, in microseconds. trueDelays maps
// packet -> true end-to-end delay.
func DelayError(ps []PacketStats, trueDelays map[event.PacketID]int64) (medianAbsErr int64, compared int) {
	var errs []int64
	for _, p := range ps {
		want, ok := trueDelays[p.Packet]
		if !ok {
			continue
		}
		d := p.Delay - want
		if d < 0 {
			d = -d
		}
		errs = append(errs, d)
	}
	if len(errs) == 0 {
		return 0, 0
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i] < errs[j] })
	return errs[len(errs)/2], len(errs)
}
