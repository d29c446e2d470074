package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
)

// buildManyOriginCampaign synthesizes a campaign whose packets spread over
// many origins with very uneven per-origin volume (origin o emits ~o
// packets), including single hot origins that dwarf a worker's even share.
func buildManyOriginCampaign(origins int) *event.Collection {
	rng := rand.New(rand.NewSource(7))
	c := event.NewCollection()
	sink := event.NodeID(900)
	seq := uint32(0)
	for o := 1; o <= origins; o++ {
		origin := event.NodeID(o)
		for p := 0; p < o; p++ {
			seq++
			pkt := event.PacketID{Origin: origin, Seq: seq}
			t0 := int64(seq) * 50
			emit := func(ev event.Event) {
				if rng.Float64() > 0.25 {
					c.Add(ev)
				}
			}
			emit(event.Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt, Time: t0})
			emit(event.Event{Node: origin, Type: event.Trans, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 1})
			emit(event.Event{Node: origin, Type: event.AckRecvd, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 2})
			emit(event.Event{Node: sink, Type: event.Recv, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 3})
		}
	}
	return c
}

// TestShardedMergeDeterministic runs the origin-sharded driver concurrently
// with itself and pins every result to the serial reconstruction — the -race
// regression test for the sharded merge: worker arenas, worker-owned run
// state and the result merge must never share memory across shards.
func TestShardedMergeDeterministic(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	c := buildManyOriginCampaign(40)
	serial := eng.Analyze(c)
	if len(serial.Flows) == 0 {
		t.Fatal("degenerate campaign")
	}
	// Origins must appear in ascending packet-ID order after the merge.
	for i := 1; i < len(serial.Flows); i++ {
		a, b := serial.Flows[i-1].Packet, serial.Flows[i].Packet
		if a.Origin > b.Origin || (a.Origin == b.Origin && a.Seq >= b.Seq) {
			t.Fatalf("serial flows out of packet-ID order at %d", i)
		}
	}
	var wg sync.WaitGroup
	for _, workers := range []int{2, 3, 7, 16} {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got, _ := eng.AnalyzeDiagnosed(c, w, diagnosis.Config{Sink: 900}, true)
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("AnalyzeDiagnosed(workers=%d) diverged from serial", w)
				}
			}(workers)
		}
	}
	wg.Wait()
}

// dominantCampaign builds packets for the given origins where exactly one
// origin carries many packets and every other origin a few.
func dominantCampaign(origins []event.NodeID, dominant event.NodeID) *event.Collection {
	c := event.NewCollection()
	sink := event.NodeID(900)
	for _, origin := range origins {
		n := 2
		if origin == dominant {
			n = 500
		}
		for p := 0; p < n; p++ {
			pkt := event.PacketID{Origin: origin, Seq: uint32(p + 1)}
			t0 := int64(origin)*100_000 + int64(p)*10
			c.Add(event.Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt, Time: t0})
			c.Add(event.Event{Node: origin, Type: event.Trans, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 1})
			c.Add(event.Event{Node: sink, Type: event.Recv, Sender: origin, Receiver: sink, Packet: pkt, Time: t0 + 2})
		}
	}
	return c
}

// TestDriveCoversEveryViewOnce pins the whole of the driver's scheduling
// contract: whatever the fan-out and however the view count falls against the
// grain (64 pulls per worker), every view is walked exactly once — its slot
// holds its own packet's flow and outcome — and flows, outcomes and the merged
// aggregate equal the serial run's. Run under -race it is also the check that
// no two workers ever hold the same range.
func TestDriveCoversEveryViewOnce(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	all, ops := event.Partition(buildManyOriginCampaign(46))
	cfg := diagnosis.Config{Sink: 900, End: 1 << 40, DayLen: 1000, Days: 3}
	fu := fusion{diagnose: true, keepFlows: true, cfg: cfg, sched: diagnosis.OutagesFromOperational(ops, cfg.End)}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		if n > len(all) {
			t.Fatalf("campaign has %d views, need %d", len(all), n)
		}
		views := all[:n]
		serial := eng.drive(views, 1, fu)
		ref := diagnosis.FromParts(cfg.Sink, fu.sched, serial.Outcomes, serial.Aggregate)
		for _, workers := range []int{1, 2, 3, 8, 64} {
			label := fmt.Sprintf("views=%d workers=%d", n, workers)
			p := eng.drive(views, workers, fu)
			if len(p.Flows) != n || len(p.Outcomes) != n {
				t.Fatalf("%s: %d flows, %d outcomes", label, len(p.Flows), len(p.Outcomes))
			}
			for i, v := range views {
				if p.Flows[i] == nil || p.Flows[i].Packet != v.Packet || p.Outcomes[i].Packet != v.Packet {
					t.Fatalf("%s: slot %d does not hold packet %v", label, i, v.Packet)
				}
			}
			if n > 0 && !reflect.DeepEqual(serial.Flows, p.Flows) {
				t.Errorf("%s: flows diverged from serial", label)
			}
			sameDiagnosis(t, label, ref, diagnosis.FromParts(cfg.Sink, fu.sched, p.Outcomes, p.Aggregate))
		}
	}
}

// TestDriverDegenerateInputs pins the driver's edges: one inline worker and
// more workers than views must return the same parts as the serial reference
// on an empty, a one-view and a one-origin input.
func TestDriverDegenerateInputs(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	oneOrigin := dominantCampaign([]event.NodeID{7}, 7)
	oneView := event.NewCollection()
	oneView.Add(event.Event{Node: 7, Type: event.Gen, Sender: 7, Packet: event.PacketID{Origin: 7, Seq: 1}, Time: 1})
	inputs := map[string]*event.Collection{"empty": event.NewCollection(), "one-view": oneView, "one-origin": oneOrigin}
	cfg := diagnosis.Config{Sink: 900, End: 1 << 40, DayLen: 1000, Days: 3}
	for name, c := range inputs {
		views, ops := event.Partition(c)
		fu := fusion{diagnose: true, keepFlows: true, cfg: cfg, sched: diagnosis.OutagesFromOperational(ops, cfg.End)}
		serial := eng.Analyze(c)
		ref := diagnosis.BuildConfig(serial.Flows, ops, cfg)
		for _, workers := range []int{1, len(views) + 3} {
			p := eng.drive(views, workers, fu)
			if len(p.Flows) != len(views) || len(p.Outcomes) != len(views) {
				t.Fatalf("%s workers=%d: %d flows, %d outcomes for %d views", name, workers, len(p.Flows), len(p.Outcomes), len(views))
			}
			if len(views) > 0 && !reflect.DeepEqual(serial.Flows, p.Flows) {
				t.Errorf("%s workers=%d: flows diverged from serial", name, workers)
			}
			sameDiagnosis(t, name, ref, diagnosis.FromParts(cfg.Sink, fu.sched, p.Outcomes, p.Aggregate))
		}
	}
}
