package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/sim"
	"repro/internal/sim/network"
	"repro/internal/workload"
)

// eventKey is what eventDiff matches events on: which packet, where, what.
// Endpoints and times are left out — the collector skews times, and an
// inferred recv may not know its sender.
type eventKey struct {
	packet event.PacketID
	node   event.NodeID
	typ    event.Type
}

// recovery is one type's row of an event diff: how many true events the
// logs miss, how many REFILL inferred, and how many of those match a
// missing one.
type recovery struct {
	Unlogged, Inferred, Matched int
}

// Precision is the share of inferred events that match an unlogged one.
func (r recovery) Precision() float64 { return ratio(r.Matched, r.Inferred) }

// Recall is the share of unlogged events that REFILL inferred.
func (r recovery) Recall() float64 { return ratio(r.Matched, r.Unlogged) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// eventDiff grades REFILL's inferred events against the true record, after
// Fahland et al.'s hide-and-recover scheme. As multisets keyed on
// (packet, node, type) over packet-scoped events, the unlogged events are
// truth minus logs; each inferred item of flows matches one unlogged event
// with its key while any is left. It returns one row per type that has any
// count, the inferred events that match none (the false positives), and the
// logged events truth does not hold — none, when logs come from truth.
func eventDiff(truth, logs *event.Collection, flows []*flow.Flow) (byType map[event.Type]recovery, unmatched []eventKey, stray int) {
	unlogged := make(map[eventKey]int)
	each := func(c *event.Collection, f func(eventKey)) {
		for _, n := range c.Nodes() {
			b := c.Logs[n].Batch()
			for i := 0; i < b.Len(); i++ {
				if t := b.Type(i); t.PacketScoped() {
					f(eventKey{b.Packet(i), n, t})
				}
			}
		}
	}
	each(truth, func(k eventKey) { unlogged[k]++ })
	each(logs, func(k eventKey) {
		if unlogged[k] == 0 {
			stray++
			return
		}
		unlogged[k]--
	})
	byType = make(map[event.Type]recovery)
	for k, n := range unlogged {
		if n > 0 {
			r := byType[k.typ]
			r.Unlogged += n
			byType[k.typ] = r
		}
	}
	for _, f := range flows {
		for _, it := range f.Items {
			if !it.Inferred {
				continue
			}
			k := eventKey{it.Event.Packet, it.Event.Node, it.Event.Type}
			r := byType[k.typ]
			r.Inferred++
			if unlogged[k] > 0 {
				unlogged[k]--
				r.Matched++
			} else {
				unmatched = append(unmatched, k)
			}
			byType[k.typ] = r
		}
	}
	return byType, unmatched, stray
}

// falseCell is where a false positive sits: its type, the role of the node
// it was inferred at for its packet, and the packet's true fate.
type falseCell struct {
	typ  event.Type
	role string // "origin", "forwarder" or "sink"
	fate string // "delivered", "lost", or "censored" (in flight at the end)
}

// splitFalse counts the false positives by type, node role and true fate.
// The sink role is the sink mote's and the origin role the packet's
// origin's; every other node forwards. A packet with no true fate is an
// error: the zero Fate would read as delivered.
func splitFalse(unmatched []eventKey, sink event.NodeID, fates map[event.PacketID]network.Fate) (map[falseCell]int, error) {
	out := make(map[falseCell]int)
	for _, k := range unmatched {
		role := "forwarder"
		switch k.node {
		case k.packet.Origin:
			role = "origin"
		case sink:
			role = "sink"
		}
		f, ok := fates[k.packet]
		if !ok {
			return nil, fmt.Errorf("inferred %v at %v for packet %v, which has no true fate", k.typ, k.node, k.packet)
		}
		fate := "lost"
		switch f.Cause {
		case diagnosis.Delivered:
			fate = "delivered"
		case diagnosis.Unknown:
			fate = "censored"
		}
		out[falseCell{k.typ, role, fate}]++
	}
	return out, nil
}

// TestInferredEventRecovery pins how many of the events the logs lost
// REFILL infers, type by type, on TestLosslessVerdicts' campaign: from the
// complete true record, and from the collector's logs at 0 % and 20 % log
// loss. The complete-record row is what REFILL infers with nothing
// missing — every one of those is a false positive, and they are pinned
// here, not explained. Each case also pins where its false positives sit:
// by type, by the role of the node they are inferred at (the packet's
// origin, a forwarder, or the sink) and by the packet's true fate. A change
// to the walk that gains or loses recovered events, or infers new ones,
// moves a count here and says which type, where and on what packets.
func TestInferredEventRecovery(t *testing.T) {
	// Item 9(b)'s 293 recvs and one trans. By role: 235 recvs at the sink,
	// 55 at forwarders and 3 at the origin, and the trans at a forwarder. By
	// fate: 34 recvs, all at forwarders, are on delivered packets, 14 on
	// packets still in flight at the end, and the other 245 and the trans
	// on lost ones. No sink recv is on a delivered packet.
	complete := map[falseCell]int{
		{event.Recv, "sink", "lost"}:           222,
		{event.Recv, "sink", "censored"}:       13,
		{event.Recv, "forwarder", "delivered"}: 34,
		{event.Recv, "forwarder", "lost"}:      20,
		{event.Recv, "forwarder", "censored"}:  1,
		{event.Recv, "origin", "lost"}:         3,
		{event.Trans, "forwarder", "lost"}:     1,
	}
	for _, tc := range []struct {
		name     string
		lossRate float64
		fromLogs bool
		want     map[event.Type]recovery
		false    map[falseCell]int
	}{
		// Item 9(b)'s count: with nothing missing, REFILL still infers 293
		// recvs and a trans. Not yet explained.
		{"complete record", 1e-9, false, map[event.Type]recovery{
			event.Recv:  {Unlogged: 0, Inferred: 293, Matched: 0},
			event.Trans: {Unlogged: 0, Inferred: 1, Matched: 0},
		}, complete},
		// The collector drops nothing at this rate and only skews clocks,
		// which the keys leave out: the same row as the complete record.
		{"0% loss", 1e-9, true, map[event.Type]recovery{
			event.Recv:  {Unlogged: 0, Inferred: 293, Matched: 0},
			event.Trans: {Unlogged: 0, Inferred: 1, Matched: 0},
		}, complete},
		// Gens and recvs come back almost all; trans under half; acks,
		// dups and timeouts never (ROADMAP item 9(c)).
		{"20% loss", 0.2, true, map[event.Type]recovery{
			event.Gen:      {Unlogged: 563, Inferred: 565, Matched: 562},
			event.Recv:     {Unlogged: 1251, Inferred: 1471, Matched: 1234},
			event.Trans:    {Unlogged: 2269, Inferred: 952, Matched: 949},
			event.AckRecvd: {Unlogged: 1359},
			event.Dup:      {Unlogged: 112},
			event.Timeout:  {Unlogged: 3},
		}, map[falseCell]int{
			{event.Gen, "origin", "censored"}:       3,
			{event.Recv, "sink", "lost"}:            172,
			{event.Recv, "sink", "censored"}:        11,
			{event.Recv, "forwarder", "delivered"}:  30,
			{event.Recv, "forwarder", "lost"}:       19,
			{event.Recv, "forwarder", "censored"}:   3,
			{event.Recv, "origin", "lost"}:          2,
			{event.Trans, "forwarder", "delivered"}: 1,
			{event.Trans, "origin", "censored"}:     2,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, coll, cfg, err := workload.Build(workload.CitySeeConfig{
				Nodes: 16, Days: 1, Seed: 4, Period: 10 * sim.Minute,
				SnowDays: []int{}, FixDay: 1, OutageHours: 6, BurstsPerDay: 2,
				LogLossRate: tc.lossRate, NodeBlackouts: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			truth := event.NewCollection()
			net.AddSink(network.SinkFunc(truth.Add))
			gt := net.Run()
			logs := truth
			if tc.fromLogs {
				logs = coll.Collection()
			}
			an, err := NewAnalyzer(Options{Sink: net.Sink(), End: int64(cfg.Days) * int64(sim.Day)})
			if err != nil {
				t.Fatal(err)
			}
			out := an.Analyze(logs)
			got, unmatched, stray := eventDiff(truth, logs, out.Result.Flows)
			cells, err := splitFalse(unmatched, net.Sink(), gt.Fates)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cells, tc.false) {
				t.Errorf("false positives by type, role and fate:\n got %v\nwant %v", cells, tc.false)
			}
			if stray != 0 {
				t.Errorf("%d logged events are not in the true record", stray)
			}
			inferred := 0
			for typ, r := range got {
				inferred += r.Inferred
				t.Logf("%-8v unlogged %5d inferred %5d matched %5d  precision %.3f recall %.3f", typ, r.Unlogged, r.Inferred, r.Matched, r.Precision(), r.Recall())
			}
			if inferred != out.Result.InferredEvents {
				t.Errorf("flows hold %d inferred events, the result counts %d", inferred, out.Result.InferredEvents)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("recovery by type:\n got %s\nwant %s", fmt.Sprint(got), fmt.Sprint(tc.want))
			}
		})
	}
}
