package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/flow"
)

// TestPartsFoldKeepsPacketOrder folds random windows — each in packet-ID
// order, as Partition emits them, with packets recurring across windows the
// way a too-small horizon splits them — and requires the accumulation to
// equal the stable packet-ID sort of every window concatenated: the
// outcomes, and with keepFlows the flows, moved in step. LossTime numbers
// every outcome, so a tie resolved the other way or a slot overwritten
// before it was read shows as a wrong sequence.
func TestPartsFoldKeepsPacketOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var windows []Parts
		var all []diagnosis.Outcome
		flowOf := make(map[int64]*flow.Flow)
		serial := int64(0)
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
			win.Aggregate = diagnosis.NewAggregate(1, 0, 0, 0)
			windows = append(windows, win)
			all = append(all, win.Outcomes...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Packet.Less(all[j].Packet) })

		for _, keep := range []bool{true, false} {
			acc := Parts{Aggregate: diagnosis.NewAggregate(1, 0, 0, 0)}
			for _, w := range windows {
				acc.Fold(w, keep)
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
