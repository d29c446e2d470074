package stats

import (
	"testing"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/workload"
)

var pkt = event.PacketID{Origin: 1, Seq: 4}

func deliveredFlow(genT, srvT int64, transCount int) *flow.Flow {
	f := &flow.Flow{Packet: pkt}
	f.Append(flow.Item{Event: event.Event{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt, Time: genT}})
	for i := 0; i < transCount; i++ {
		f.Append(flow.Item{Event: event.Event{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt, Time: genT + 10}})
	}
	f.Append(flow.Item{Event: event.Event{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt, Time: genT + 20}})
	f.Append(flow.Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv, Sender: 2, Receiver: event.Server, Packet: pkt, Time: srvT}})
	return f
}

func TestComputeBasic(t *testing.T) {
	ps := Compute([]*flow.Flow{deliveredFlow(100, 700, 3)}, nil)
	if len(ps) != 1 {
		t.Fatalf("stats = %d", len(ps))
	}
	if ps[0].Delay != 600 || ps[0].Transmissions != 3 || ps[0].Hops != 2 {
		t.Errorf("stats = %+v", ps[0])
	}
}

func TestComputeSkipsUndelivered(t *testing.T) {
	f := &flow.Flow{Packet: pkt}
	f.Append(flow.Item{Event: event.Event{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt, Time: 5}})
	if got := Compute([]*flow.Flow{f}, nil); len(got) != 0 {
		t.Errorf("undelivered measured: %+v", got)
	}
}

func TestComputeSkipsInferredGen(t *testing.T) {
	f := deliveredFlow(100, 700, 1)
	f.Items[0].Inferred = true // gen has no trustworthy timestamp
	if got := Compute([]*flow.Flow{f}, nil); len(got) != 0 {
		t.Errorf("inferred gen measured: %+v", got)
	}
}

func TestComputeCorrectsClocks(t *testing.T) {
	// The origin's clock is 50s fast; without correction the delay would
	// come out 50s short (even negative).
	skew := int64(50_000_000)
	f := deliveredFlow(100+skew, 700, 1)
	clocks := &clocksync.Result{Anchor: event.Server, Nodes: map[event.NodeID]clocksync.Params{
		1: {Offset: float64(skew)},
	}}
	ps := Compute([]*flow.Flow{f}, clocks)
	if len(ps) != 1 {
		t.Fatal("no stats")
	}
	if ps[0].Delay != 600 {
		t.Errorf("corrected delay = %d, want 600", ps[0].Delay)
	}
	raw := Compute([]*flow.Flow{f}, nil)
	if raw[0].Delay == 600 {
		t.Error("uncorrected delay should be skewed")
	}
}

func TestSummarize(t *testing.T) {
	ps := []PacketStats{
		{Delay: 100, Transmissions: 1, Hops: 1},
		{Delay: 200, Transmissions: 3, Hops: 2, Loop: true},
		{Delay: 900, Transmissions: 2, Hops: 3},
	}
	s := Summarize(ps)
	if s.Count != 3 || s.MeanDelay != 400 || s.P50Delay != 200 || s.MaxDelay != 900 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanTransmissions != 2 || s.Loops != 1 {
		t.Errorf("summary = %+v", s)
	}
	if Summarize(nil).Count != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestDelayError(t *testing.T) {
	ps := []PacketStats{
		{Packet: event.PacketID{Origin: 1, Seq: 1}, Delay: 110},
		{Packet: event.PacketID{Origin: 1, Seq: 2}, Delay: 300},
		{Packet: event.PacketID{Origin: 9, Seq: 9}, Delay: 1}, // not in truth
	}
	truth := map[event.PacketID]int64{
		{Origin: 1, Seq: 1}: 100,
		{Origin: 1, Seq: 2}: 250,
	}
	med, n := DelayError(ps, truth)
	if n != 2 || med != 50 {
		t.Errorf("median = %d over %d", med, n)
	}
	if med, n := DelayError(nil, truth); med != 0 || n != 0 {
		t.Error("empty input should score zero")
	}
}

// TestEndToEndDelayRecovery: on a simulated campaign, delays measured on
// RECOVERED clocks must be far closer to the truth than delays measured on
// raw local clocks (whose offsets reach ±2 minutes).
func TestEndToEndDelayRecovery(t *testing.T) {
	res, err := workload.Run(workload.Tiny(31))
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(core.Options{Sink: res.Sink, End: int64(res.Duration)})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(res.Logs)
	truth := make(map[event.PacketID]int64)
	for id, f := range res.Truth.Fates {
		if f.Cause == 0 { // Delivered
			truth[id] = f.Time - f.GenTime
		}
	}
	clocks := clocksync.Estimate(out.Result.Flows, event.Server)
	corrected := Compute(out.Result.Flows, clocks)
	raw := Compute(out.Result.Flows, nil)
	medCorr, n1 := DelayError(corrected, truth)
	medRaw, n2 := DelayError(raw, truth)
	if n1 == 0 || n2 == 0 {
		t.Fatal("nothing compared")
	}
	if medCorr >= medRaw {
		t.Errorf("corrected delays (median err %.2fs) no better than raw (%.2fs)",
			float64(medCorr)/1e6, float64(medRaw)/1e6)
	}
	if medCorr > 10_000_000 {
		t.Errorf("corrected median delay error = %.2fs, want < 10s", float64(medCorr)/1e6)
	}
	t.Logf("delay error: corrected %.2fs vs raw %.2fs over %d packets",
		float64(medCorr)/1e6, float64(medRaw)/1e6, n1)
}
