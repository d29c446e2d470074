package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// analyzeDiagnosed is the batch analyzer's fused run as core composes it:
// partition c on the run's workers, build the outage schedule from the
// operational rows the partition sets aside, run the driver with diagnosis,
// and assemble the report.
func analyzeDiagnosed(e *Engine, c *event.Collection, workers int, cfg diagnosis.Config, keepFlows bool) (*Result, *diagnosis.Report) {
	views, ops := event.PartitionWorkers(c, workers)
	sched := diagnosis.OutagesFromOperational(ops, cfg.End)
	p := e.Run(views, workers, Fusion{KeepFlows: keepFlows, Sink: cfg.Sink, Sched: sched})
	return p.Result(ops), diagnosis.FromParts(cfg.Sink, cfg.Start, sched, p.Outcomes)
}

// TestPartsFoldKeepsPacketOrder folds random windows — each in packet-ID
// order, as Partition emits them, with packets recurring across windows the
// way a too-small horizon splits them — and requires the accumulation to
// equal the stable packet-ID sort of every window concatenated: the
// outcomes, and with keepFlows the flows, moved in step, and the counters
// summed. LossTime numbers every outcome, so a tie resolved the other way or
// a slot overwritten before it was read shows as a wrong sequence.
func TestPartsFoldKeepsPacketOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var windows []Parts
		var all []diagnosis.Outcome
		flowOf := make(map[int64]*flow.Flow)
		serial := int64(0)
		inferred, anomalies := 0, 0
		for w := rng.Intn(6); w >= 0; w-- {
			ids := make(map[event.PacketID]bool)
			for n := rng.Intn(12); n > 0; n-- {
				ids[event.PacketID{Origin: event.NodeID(rng.Intn(4)), Seq: uint32(rng.Intn(10))}] = true
			}
			var win Parts
			//refill:allow maprange — sorted below
			for id := range ids {
				serial++
				win.Outcomes = append(win.Outcomes, diagnosis.Outcome{Packet: id, LossTime: serial})
			}
			sort.Slice(win.Outcomes, func(i, j int) bool { return win.Outcomes[i].Packet.Less(win.Outcomes[j].Packet) })
			for _, o := range win.Outcomes {
				f := &flow.Flow{Packet: o.Packet}
				flowOf[o.LossTime] = f
				win.Flows = append(win.Flows, f)
			}
			win.InferredEvents, win.Anomalies = int(serial), len(win.Outcomes)
			inferred += win.InferredEvents
			anomalies += win.Anomalies
			windows = append(windows, win)
			all = append(all, win.Outcomes...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Packet.Less(all[j].Packet) })

		for _, keep := range []bool{true, false} {
			var acc Parts
			for _, w := range windows {
				if !keep { // a window run without keepFlows carries none
					w.Flows = nil
				}
				acc.Fold(w)
			}
			acc.Settle()
			if acc.InferredEvents != inferred || acc.Anomalies != anomalies {
				t.Fatalf("trial %d keepFlows=%v: folded counters %d/%d, want %d/%d",
					trial, keep, acc.InferredEvents, acc.Anomalies, inferred, anomalies)
			}
			if len(all) == 0 && len(acc.Outcomes) == 0 {
				continue
			}
			if !reflect.DeepEqual(acc.Outcomes, all) {
				t.Fatalf("trial %d keepFlows=%v: folded outcomes\n %v\nwant\n %v", trial, keep, acc.Outcomes, all)
			}
			if !keep {
				if acc.Flows != nil {
					t.Fatalf("trial %d: flows kept without keepFlows", trial)
				}
				continue
			}
			for k, o := range acc.Outcomes {
				if acc.Flows[k] != flowOf[o.LossTime] {
					t.Fatalf("trial %d: flow %d is not outcome %d's", trial, k, k)
				}
			}
		}
	}
}

// TestPartsFoldManyWindows folds a long session's worth of windows — every
// origin's sequence numbers advancing window by window, so each window's
// packets interleave with all earlier ones in packet-ID order, some windows
// empty, a few packets split across two — and requires the settled
// accumulation to equal one stable sort of every window, flows moved in
// step, while the unmerged runs stay within one per bit of the total.
func TestPartsFoldManyWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var windows []Parts
	var all []diagnosis.Outcome
	flowOf := make(map[int64]*flow.Flow)
	serial := int64(0)
	next := make([]uint32, 40) // each origin's next sequence number
	for w := 0; w < 500; w++ {
		var win Parts
		for o := range next {
			for n := rng.Intn(4); n > 0; n-- {
				serial++
				win.Outcomes = append(win.Outcomes, diagnosis.Outcome{Packet: event.PacketID{Origin: event.NodeID(o), Seq: next[o]}, LossTime: serial})
				if rng.Intn(50) > 0 { // else the packet recurs in the next window
					next[o]++
				}
			}
		}
		if w%7 == 3 {
			win.Outcomes = nil
		}
		for _, o := range win.Outcomes {
			f := &flow.Flow{Packet: o.Packet}
			flowOf[o.LossTime] = f
			win.Flows = append(win.Flows, f)
		}
		windows = append(windows, win)
		all = append(all, win.Outcomes...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Packet.Less(all[j].Packet) })

	for _, keep := range []bool{true, false} {
		var acc Parts
		for k, w := range windows {
			if !keep {
				w.Flows = nil
			}
			acc.Fold(w)
			if len(acc.runs) > bits.Len(uint(len(acc.Outcomes))) {
				t.Fatalf("keepFlows=%v: %d runs over %d outcomes after window %d", keep, len(acc.runs), len(acc.Outcomes), k)
			}
		}
		acc.Settle()
		if !reflect.DeepEqual(acc.Outcomes, all) {
			t.Fatalf("keepFlows=%v: settled outcomes differ from one sort of every window", keep)
		}
		if !keep {
			if acc.Flows != nil {
				t.Fatal("flows kept without keepFlows")
			}
			continue
		}
		for k, o := range acc.Outcomes {
			if acc.Flows[k] != flowOf[o.LossTime] {
				t.Fatalf("flow %d is not outcome %d's", k, k)
			}
		}
	}
}

// TestWindowDiscardsFlows pins the discard path, the service default: a
// window run without keepFlows carries no flows, and its outcomes and report
// equal those of the run that keeps them, at every fan-out. One
// packet's flow is larger than an arena's default items chunk, so the
// recycled arena must refill for it and then carve every later flow from
// that refill. A worker that recycled its arena before classifying, or kept
// a flow it had recycled, would read another flow's items here.
func TestWindowDiscardsFlows(t *testing.T) {
	eng, err := New(Options{Sink: 900})
	if err != nil {
		t.Fatal(err)
	}
	c := buildManyOriginCampaign(30)
	big := event.PacketID{Origin: 999, Seq: 1}
	c.Add(event.Event{Node: 999, Type: event.Gen, Sender: 999, Packet: big, Time: 0})
	for i := int64(1); i <= 200; i++ {
		c.Add(event.Event{Node: 999, Type: event.Trans, Sender: 999, Receiver: 900, Packet: big, Time: 2 * i})
		c.Add(event.Event{Node: 900, Type: event.Recv, Sender: 999, Receiver: 900, Packet: big, Time: 2*i + 1})
	}
	cfg := diagnosis.Config{Sink: 900, End: 1 << 40}
	sched := diagnosis.OutagesFromOperational(nil, cfg.End)
	views, _ := event.Partition(c)
	ref := eng.Run(views, 1, Fusion{KeepFlows: true, Sink: cfg.Sink, Sched: sched})
	largest := 0
	for _, f := range ref.Flows {
		largest = max(largest, len(f.Items))
	}
	if largest <= 256 { // flow.NewArena's default items chunk
		t.Fatalf("largest flow has %d items; the test needs one past the default chunk", largest)
	}
	for _, workers := range []int{1, 2, 8} {
		kept := eng.Run(views, workers, Fusion{KeepFlows: true, Sink: cfg.Sink, Sched: sched})
		dropped := eng.Run(views, workers, Fusion{Sink: cfg.Sink, Sched: sched})
		if dropped.Flows != nil {
			t.Fatalf("workers=%d: %d flows carried without keepFlows", workers, len(dropped.Flows))
		}
		if !reflect.DeepEqual(ref.Flows, kept.Flows) {
			t.Errorf("workers=%d: kept flows diverged from serial", workers)
		}
		if !reflect.DeepEqual(kept.Outcomes, dropped.Outcomes) {
			t.Errorf("workers=%d: outcomes without keepFlows diverged", workers)
		}
		label := fmt.Sprintf("workers=%d", workers)
		sameDiagnosis(t, label, diagnosis.FromParts(cfg.Sink, cfg.Start, sched, ref.Outcomes),
			diagnosis.FromParts(cfg.Sink, cfg.Start, sched, dropped.Outcomes))
	}
}
