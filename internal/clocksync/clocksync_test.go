package clocksync

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/logging"
	"repro/internal/workload"
)

func TestParamsRoundTrip(t *testing.T) {
	p := Params{Offset: 120_000_000, Drift: 3e-5}
	for _, tt := range []int64{0, 1_000_000, 3_600_000_000, 86_400_000_000} {
		local := p.Local(tt)
		back := p.True(local)
		if diff := back - tt; diff > 2 || diff < -2 {
			t.Errorf("round trip at %d: off by %d", tt, diff)
		}
	}
}

// syntheticFlow builds a flow with logged cross-node pairs under known
// clocks.
func syntheticFlow(pkt event.PacketID, clocks map[event.NodeID]Params,
	path []event.NodeID, t0 int64) *flow.Flow {
	f := &flow.Flow{Packet: pkt}
	tt := t0
	add := func(ty event.Type, s, r event.NodeID, trueT int64) {
		node := r
		if ty.SenderSide() || ty.NodeLocal() {
			node = s
		}
		local := trueT
		if p, ok := clocks[node]; ok {
			local = p.Local(trueT)
		}
		f.Append(flow.Item{Event: event.Event{Node: node, Type: ty, Sender: s,
			Receiver: r, Packet: pkt, Time: local}})
	}
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		add(event.Trans, a, b, tt)
		add(event.Recv, a, b, tt+300_000) // 300 ms MAC delay
		add(event.AckRecvd, a, b, tt+302_000)
		tt += 1_000_000
	}
	return f
}

func TestEstimateRecoverSyntheticOffsets(t *testing.T) {
	clocks := map[event.NodeID]Params{
		1: {Offset: 90_000_000},  // +90 s
		2: {Offset: -40_000_000}, // -40 s
		3: {Offset: 10_000_000},
		// server: true clock
	}
	var flows []*flow.Flow
	for i := 0; i < 50; i++ {
		pkt := event.PacketID{Origin: 1, Seq: uint32(i + 1)}
		f := syntheticFlow(pkt, clocks, []event.NodeID{1, 2, 3}, int64(i)*10_000_000)
		// Tie node 3 (acting sink) to the server.
		sinkRecvLocal := clocks[3].Local(int64(i)*10_000_000 + 1_300_000)
		f.Append(flow.Item{Event: event.Event{Node: 3, Type: event.Recv, Sender: 2,
			Receiver: 3, Packet: pkt, Time: sinkRecvLocal}})
		f.Append(flow.Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv,
			Sender: 3, Receiver: event.Server, Packet: pkt,
			Time: int64(i)*10_000_000 + 1_350_000}})
		flows = append(flows, f)
	}
	res := Estimate(flows, event.Server)
	if res.Pairs == 0 {
		t.Fatal("no constraints extracted")
	}
	for n, want := range clocks {
		got, ok := res.Offset(n)
		if !ok {
			t.Fatalf("node %v not estimated", n)
		}
		err := got.Offset - want.Offset
		if err < 0 {
			err = -err
		}
		// MAC delay noise is ~0.3 s; offsets are tens of seconds.
		if err > 2_000_000 {
			t.Errorf("node %v offset = %.0f, want %.0f (err %.0fus)",
				n, got.Offset, want.Offset, err)
		}
	}
}

func TestEstimateEmptyFlows(t *testing.T) {
	res := Estimate(nil, event.Server)
	if res.Pairs != 0 {
		t.Errorf("pairs = %d", res.Pairs)
	}
	if _, ok := res.Offset(event.Server); !ok {
		t.Error("anchor must always be present")
	}
}

func TestCorrectUnknownNodePassthrough(t *testing.T) {
	res := Estimate(nil, event.Server)
	e := event.Event{Node: 42, Time: 777}
	if res.Correct(e) != 777 {
		t.Error("unknown node should pass through")
	}
}

func TestEstimateOnSimulatedCampaign(t *testing.T) {
	// End-to-end: simulate, reconstruct, recover clocks, compare against
	// the collector's true clock assignments.
	cfg := workload.Tiny(21)
	res, err := workload.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(core.Options{Sink: res.Sink, End: int64(res.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(res.Logs)
	est := Estimate(out.Result.Flows, event.Server)
	if est.Pairs == 0 {
		t.Fatal("no constraints from campaign flows")
	}
	// Reconstruct the true clocks the collector used.
	lc := logging.DefaultConfig(cfg.Seed + 1)
	lc.LossRate = cfg.LogLossRate
	coll := logging.NewCollector(lc)
	truth := make(map[event.NodeID]Params)
	for _, n := range res.Topology.NodeIDs() {
		c := coll.Clock(n)
		truth[n] = Params{Offset: float64(c.Offset), Drift: c.Drift}
	}
	mid := int64(res.Duration) / 2
	mae := est.MeanAbsOffsetError(truth, mid)
	// Naive baseline: assume all clocks are perfect (zero offsets).
	zero := &Result{Anchor: event.Server, Nodes: map[event.NodeID]Params{}}
	for n := range truth {
		zero.Nodes[n] = Params{}
	}
	naive := zero.MeanAbsOffsetError(truth, mid)
	if mae >= naive {
		t.Errorf("estimation (MAE %.0fus) no better than assuming zero offsets (%.0fus)", mae, naive)
	}
	// Offsets are up to ±2 min; recovery should land within seconds.
	if mae > 10_000_000 {
		t.Errorf("MAE = %.2fs, want < 10s", mae/1e6)
	}
	t.Logf("clock recovery MAE: %.2fs (naive %.2fs) from %d pairs", mae/1e6, naive/1e6, est.Pairs)
}

func TestEstimateDeterministicAcrossCalls(t *testing.T) {
	clocks := map[event.NodeID]Params{
		1: {Offset: 90_000_000, Drift: 2e-5},
		2: {Offset: -40_000_000},
		3: {Offset: 10_000_000, Drift: -1e-5},
	}
	var flows []*flow.Flow
	for i := 0; i < 30; i++ {
		pkt := event.PacketID{Origin: 1, Seq: uint32(i + 1)}
		flows = append(flows,
			syntheticFlow(pkt, clocks, []event.NodeID{1, 2, 3}, int64(i)*10_000_000))
	}
	// Constraint extraction iterates hop maps; the results must still be
	// bit-identical call to call (the accumulation order is fixed).
	a := Estimate(flows, event.Server)
	b := Estimate(flows, event.Server)
	if a.Pairs != b.Pairs || len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("shape differs: %d/%d pairs, %d/%d nodes",
			a.Pairs, b.Pairs, len(a.Nodes), len(b.Nodes))
	}
	for n, pa := range a.Nodes {
		if pb := b.Nodes[n]; pa != pb {
			t.Errorf("node %v params differ across identical calls: %+v vs %+v", n, pa, pb)
		}
	}
}

// TestEstimateKeepsSparseNodes checks that a node paired in a single flow
// still gets an estimate and nothing is reported unanchored.
func TestEstimateKeepsSparseNodes(t *testing.T) {
	clocks := map[event.NodeID]Params{
		1: {Offset: 90_000_000},
		2: {Offset: -40_000_000},
		5: {Offset: 55_000_000}, // appears in exactly one flow
	}
	var flows []*flow.Flow
	for i := 0; i < 20; i++ {
		pkt := event.PacketID{Origin: 1, Seq: uint32(i + 1)}
		flows = append(flows,
			syntheticFlow(pkt, clocks, []event.NodeID{1, 2, event.Server}, int64(i)*10_000_000))
	}
	flows = append(flows, syntheticFlow(event.PacketID{Origin: 5, Seq: 1}, clocks,
		[]event.NodeID{5, 2, event.Server}, 0))

	full := Estimate(flows, event.Server)
	if _, ok := full.Offset(5); !ok {
		t.Fatal("node 5 missing")
	}
	if len(full.Unanchored) != 0 {
		t.Fatalf("unexpected unanchored nodes: %v", full.Unanchored)
	}
}
