package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/fsm"
)

// buildManyPackets makes a collection with n independent 3-hop packets,
// randomly thinned.
func buildManyPackets(n int) *event.Collection {
	c := event.NewCollection()
	for i := 0; i < n; i++ {
		origin := event.NodeID(i%7 + 1)
		pkt := event.PacketID{Origin: origin, Seq: uint32(i + 1)}
		next := origin + 10
		c.Add(event.Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt, Time: int64(i)})
		c.Add(event.Event{Node: origin, Type: event.Trans, Sender: origin, Receiver: next, Packet: pkt, Time: int64(i) + 1})
		if i%3 != 0 { // every third packet loses its recv record
			c.Add(event.Event{Node: next, Type: event.Recv, Sender: origin, Receiver: next, Packet: pkt, Time: int64(i) + 2})
		}
		if i%2 == 0 {
			c.Add(event.Event{Node: origin, Type: event.AckRecvd, Sender: origin, Receiver: next, Packet: pkt, Time: int64(i) + 3})
		}
	}
	return c
}

func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	eng, err := New(Options{Protocol: fsm.DefaultCTP(), Sink: 99})
	if err != nil {
		t.Fatal(err)
	}
	c := buildManyPackets(500)
	serial := eng.Analyze(c)
	for _, workers := range []int{1, 2, 4, 16} {
		par, _ := analyzeDiagnosed(eng, c, workers, diagnosis.Config{Sink: 99}, true)
		if len(par.Flows) != len(serial.Flows) {
			t.Fatalf("workers=%d: flow count %d vs %d", workers, len(par.Flows), len(serial.Flows))
		}
		for i := range serial.Flows {
			if serial.Flows[i].Packet != par.Flows[i].Packet {
				t.Fatalf("workers=%d: packet order diverged at %d", workers, i)
			}
			if serial.Flows[i].String() != par.Flows[i].String() {
				t.Fatalf("workers=%d: flow %v differs:\n%s\n%s", workers,
					serial.Flows[i].Packet, serial.Flows[i], par.Flows[i])
			}
		}
	}
}

func TestAnalyzeParallelEmpty(t *testing.T) {
	eng, err := New(Options{Sink: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := analyzeDiagnosed(eng, event.NewCollection(), 4, diagnosis.Config{Sink: 9}, true)
	if len(res.Flows) != 0 {
		t.Errorf("flows = %d", len(res.Flows))
	}
}

func TestAnalyzeParallelDefaultsWorkers(t *testing.T) {
	eng, err := New(Options{Sink: 99})
	if err != nil {
		t.Fatal(err)
	}
	c := buildManyPackets(50)
	res, _ := analyzeDiagnosed(eng, c, 0, diagnosis.Config{Sink: 99}, true) // GOMAXPROCS
	if len(res.Flows) != 50 {
		t.Errorf("flows = %d", len(res.Flows))
	}
}

func TestAnalyzeParallelOperationalEvents(t *testing.T) {
	eng, err := New(Options{Sink: 99})
	if err != nil {
		t.Fatal(err)
	}
	c := buildManyPackets(10)
	c.Add(event.Event{Node: event.Server, Type: event.ServerDown, Time: 5})
	res, _ := analyzeDiagnosed(eng, c, 2, diagnosis.Config{Sink: 99}, true)
	if len(res.Operational) != 1 {
		t.Errorf("operational = %d", len(res.Operational))
	}
}

// buildSeededCampaign synthesizes a deterministic lossy campaign: multi-hop
// chains toward the sink with a server last mile, randomly thinned logs,
// occasional duplicates, and operational events — enough variety to exercise
// inference, rotation, peer retargeting and the operational side channel.
func buildSeededCampaign(packets int) *event.Collection {
	rng := rand.New(rand.NewSource(1234))
	sink := event.NodeID(99)
	c := event.NewCollection()
	c.Add(event.Event{Node: event.Server, Type: event.ServerUp, Time: 0})
	for i := 0; i < packets; i++ {
		origin := event.NodeID(rng.Intn(20) + 1)
		pkt := event.PacketID{Origin: origin, Seq: uint32(i + 1)}
		t0 := int64(i * 100)
		emit := func(ev event.Event) {
			if rng.Float64() > 0.3 { // 30% log loss
				c.Add(ev)
			}
		}
		emit(event.Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt, Time: t0})
		cur := origin
		hops := rng.Intn(3) + 1
		for h := 0; h < hops; h++ {
			next := event.NodeID(100 + h*20 + rng.Intn(10)) // distinct band per hop
			emit(event.Event{Node: cur, Type: event.Trans, Sender: cur, Receiver: next, Packet: pkt, Time: t0 + int64(h*10+1)})
			emit(event.Event{Node: cur, Type: event.AckRecvd, Sender: cur, Receiver: next, Packet: pkt, Time: t0 + int64(h*10+2)})
			emit(event.Event{Node: next, Type: event.Recv, Sender: cur, Receiver: next, Packet: pkt, Time: t0 + int64(h*10+3)})
			if rng.Float64() < 0.1 {
				emit(event.Event{Node: next, Type: event.Dup, Sender: cur, Receiver: next, Packet: pkt, Time: t0 + int64(h*10+4)})
			}
			cur = next
		}
		emit(event.Event{Node: cur, Type: event.Trans, Sender: cur, Receiver: sink, Packet: pkt, Time: t0 + 50})
		emit(event.Event{Node: sink, Type: event.Recv, Sender: cur, Receiver: sink, Packet: pkt, Time: t0 + 51})
		emit(event.Event{Node: event.Server, Type: event.ServerRecv, Sender: sink, Receiver: event.Server, Packet: pkt, Time: t0 + 52})
	}
	c.Add(event.Event{Node: event.Server, Type: event.ServerDown, Time: int64(packets * 100)})
	return c
}

// TestAnalyzeVariantsProduceIdenticalResults asserts the acceptance contract:
// the driver returns a Result deeply equal to serial Analyze on a seeded
// campaign, for several worker counts, and a run that keeps no flows returns
// the same Result without them: its inferred-event and anomaly counters are
// the sums over the serial flows. A run without diagnosis fans out the same
// way and returns serial AnalyzeViews' flows. Two foreign gen records add
// anomalies. Determinism is the correctness contract of the whole pipeline.
func TestAnalyzeVariantsProduceIdenticalResults(t *testing.T) {
	eng, err := New(Options{Sink: 99})
	if err != nil {
		t.Fatal(err)
	}
	c := buildSeededCampaign(400)
	for seq := uint32(1); seq <= 2; seq++ { // a gen logged by a node that is not the origin
		c.Add(event.Event{Node: 50, Type: event.Gen, Sender: 7, Packet: event.PacketID{Origin: 7, Seq: 10_000 + seq}, Time: 1})
	}
	serial := eng.Analyze(c)
	if len(serial.Flows) == 0 || len(serial.Operational) != 2 {
		t.Fatalf("campaign degenerate: %d flows, %d operational", len(serial.Flows), len(serial.Operational))
	}
	inferred, anomalies := 0, 0
	for _, f := range serial.Flows {
		inferred += f.InferredCount()
		anomalies += len(f.Anomalies)
	}
	if serial.InferredEvents != inferred || serial.Anomalies != anomalies || inferred == 0 || anomalies == 0 {
		t.Fatalf("serial counters = %d inferred / %d anomalies, flows sum to %d / %d (both must be nonzero)",
			serial.InferredEvents, serial.Anomalies, inferred, anomalies)
	}
	flowless := *serial
	flowless.Flows = nil
	for _, workers := range []int{0, 1, 2, 3, 4, 7, 8} {
		par, _ := analyzeDiagnosed(eng, c, workers, diagnosis.Config{Sink: 99}, true)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("fused run (workers=%d) diverged from Analyze", workers)
		}
		dropped, _ := analyzeDiagnosed(eng, c, workers, diagnosis.Config{Sink: 99}, false)
		if !reflect.DeepEqual(&flowless, dropped) {
			t.Fatalf("fused run (workers=%d) without flows = %d flows, %d/%d counters; want none and %d/%d",
				workers, len(dropped.Flows), dropped.InferredEvents, dropped.Anomalies, inferred, anomalies)
		}
	}
	views, _ := event.Partition(c)
	want := eng.AnalyzeViews(views)
	for _, workers := range []int{2, 8} {
		p := eng.Run(views, workers, Fusion{KeepFlows: true})
		if !reflect.DeepEqual(want, p.Flows) {
			t.Fatalf("undiagnosed run (workers=%d) diverged from serial AnalyzeViews", workers)
		}
		if p.Outcomes != nil || p.InferredEvents != inferred || p.Anomalies != anomalies {
			t.Fatalf("undiagnosed run (workers=%d): %d outcomes, %d/%d counters; want none, %d/%d",
				workers, len(p.Outcomes), p.InferredEvents, p.Anomalies, inferred, anomalies)
		}
	}
}
