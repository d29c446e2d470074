package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/sim/network"
	"repro/internal/workload"
)

// scale sizes the inputs. fullScale is what BENCHMARK.json measures;
// smokeScale drives the same code over a campaign small enough for go test.
type scale struct {
	citySee    func(seed int64) workload.CitySeeConfig
	skewEvents int // hot-origin campaign grows to about this many events
	windowRows int // -window-rows of snapshot-ooc
	rounds     int // time slices of serve-replay
}

// fullScale is the issue's CitySee campaign cut from 12 days to 4 (same
// deployment, period and loss rate; snow, cable fix and outage hours cut in
// proportion): about 1.1 M events and 38 MB of text. The driver makes 92 runs
// in 57 minutes, each with three set-ups, and this box slows by up to a half
// under sustained load; the 12-day campaign (5 s to simulate, 3 s per refill)
// does not fit.
//
// NodeBlackouts is negative, which means none (0 would mean the default 3). A
// node silent for a day stalls the session's watermark for a quarter of this
// campaign, and where the seed puts that day then decides refill-serve's peak
// memory: 81-138 MB across ten seeds, against 34-37 MB without. That is a
// hostile-input scenario (ROADMAP 3c) for a workload of its own, not the
// steady traffic these four gate.
var fullScale = scale{
	citySee: func(seed int64) workload.CitySeeConfig {
		return workload.CitySeeConfig{
			Nodes: 100, Days: 4, Period: 15 * sim.Minute, SnowDays: []int{2},
			FixDay: 4, OutageHours: 3, LogLossRate: 0.20, NodeBlackouts: -1, Seed: seed,
		}
	},
	skewEvents: 1_600_000,
	windowRows: 131072, // about 9 residency windows
	rounds:     48,
}

var smokeScale = scale{citySee: workload.Tiny, skewEvents: 150_000, windowRows: 8192, rounds: 6}

// campaign is one generated input: the lossy logs the binaries are fed, and
// what the reference and the scorer need to know about them.
type campaign struct {
	logs  *event.Collection
	sink  event.NodeID
	days  int
	fates map[event.PacketID]network.Fate
}

// end is the campaign end as cmd/refill derives it from -days.
func (c *campaign) end() int64 { return int64(c.days) * int64(sim.Day) }

func genCitySee(cfg workload.CitySeeConfig) (*campaign, error) {
	res, err := workload.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &campaign{logs: res.Logs, sink: res.Sink, days: res.Config.Days, fates: res.Truth.Fates}, nil
}

// genSkew derives a hot-origin campaign from a small simulated one: every
// packet of the busiest origin is replicated under fresh sequence numbers
// (same per-node rows, same timestamps) until the collection holds about
// target events, then each node's log is stably re-sorted by time so per-node
// time order still holds. The result is protocol-valid, and one origin
// carries orders of magnitude more packets than any other — the distribution
// that serializes an origin-aligned static cut. Ported from the skewedLogs
// test helper (sched_equiv_test.go). The ground truth covers the original
// packets only.
func genSkew(cfg workload.CitySeeConfig, target int) (*campaign, error) {
	base, err := genCitySee(cfg)
	if err != nil {
		return nil, err
	}
	rows := make(map[event.NodeID]int) // packet-scoped rows per origin
	maxSeq := uint32(0)
	for _, n := range base.logs.Nodes() {
		b := base.logs.Log(n).Batch()
		for i := 0; i < b.Len(); i++ {
			if !b.Type(i).PacketScoped() {
				continue
			}
			p := b.Packet(i)
			rows[p.Origin]++
			maxSeq = max(maxSeq, p.Seq)
		}
	}
	hot, hotRows := event.NoNode, 0
	for origin, n := range rows {
		if n > hotRows || (n == hotRows && origin < hot) {
			hot, hotRows = origin, n
		}
	}
	if hotRows == 0 {
		return nil, fmt.Errorf("skew: base campaign has no packets")
	}
	reps := max(1, (target-base.logs.TotalEvents()+hotRows-1)/hotRows)
	if uint64(reps+1)*uint64(maxSeq+1) > math.MaxUint32 {
		return nil, fmt.Errorf("skew: %d replicas overflow the sequence space", reps)
	}

	out := event.NewCollection()
	for _, n := range base.logs.Nodes() {
		evs := base.logs.Log(n).Events()
		grown := make([]event.Event, 0, len(evs))
		for _, e := range evs {
			grown = append(grown, e)
			if e.Type.PacketScoped() && e.Packet.Origin == hot {
				for r := 1; r <= reps; r++ {
					ce := e
					ce.Packet.Seq = e.Packet.Seq + uint32(r)*(maxSeq+1)
					grown = append(grown, ce)
				}
			}
		}
		// Replica rows carry their originals' timestamps, so a stable
		// sort keeps each replica's per-node row order equal to the
		// original packet's.
		sort.SliceStable(grown, func(i, j int) bool { return grown[i].Time < grown[j].Time })
		l := out.Log(n)
		for _, e := range grown {
			l.Append(e)
		}
	}
	base.logs = out
	return base, nil
}

// fragment is one append request: a node's slice of its log for one round,
// already encoded in the binary codec.
type fragment struct {
	node   event.NodeID
	events int
	body   []byte
}

// schedule is the serve-replay traffic: every node's log cut into the same
// time slices, one fragment per node and round (a node with no rows in a
// slice sends nothing that round).
type schedule struct {
	nodes  []event.NodeID
	rounds [][]fragment
	// cuts[r] is the time every node's log has been delivered up to once
	// round r completes: the watermark the controller advances to.
	cuts []int64
}

// sliceRounds cuts each node's log at rounds-1 evenly spaced times in
// [0, end). A node's rows go to the first round whose cut lies above their
// timestamp, never to a round before an earlier row's (so per-node log order
// survives even where a log is not time-sorted), and the last round takes
// the rest: every event lands in exactly one fragment.
func sliceRounds(logs *event.Collection, rounds int, end int64) (*schedule, error) {
	s := &schedule{nodes: logs.Nodes(), rounds: make([][]fragment, rounds), cuts: make([]int64, rounds)}
	for r := range s.cuts {
		s.cuts[r] = end / int64(rounds) * int64(r+1)
	}
	s.cuts[rounds-1] = end
	for _, n := range s.nodes {
		b := logs.Log(n).Batch()
		lo := 0
		for r := 0; r < rounds; r++ {
			hi := lo
			for hi < b.Len() && (r == rounds-1 || b.Time(hi) < s.cuts[r]) {
				hi++
			}
			if hi == lo {
				continue
			}
			part := event.NewCollection()
			l := part.Log(n)
			for i := lo; i < hi; i++ {
				l.Append(b.At(i))
			}
			var buf bytes.Buffer
			if err := event.WriteCollectionBinary(&buf, part); err != nil {
				return nil, err
			}
			s.rounds[r] = append(s.rounds[r], fragment{node: n, events: hi - lo, body: buf.Bytes()})
			lo = hi
		}
	}
	return s, nil
}

// appends is the number of append requests in the schedule.
func (s *schedule) appends() int {
	n := 0
	for _, r := range s.rounds {
		n += len(r)
	}
	return n
}
