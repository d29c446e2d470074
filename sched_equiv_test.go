package refill

// Equivalence suite for the driver's fan-out on the workload that strains it:
// a campaign where one hot origin dominates the packet volume, so its views
// are spread over every worker. On every caller of the driver (batch,
// windowed out-of-core) the output must be byte-identical to the serial
// reference, because which worker pulls which range is racy by construction
// and must never leak into results.

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// skewedLogs derives a hot-origin campaign from real simulated logs: every
// packet of the busiest origin is replicated reps times under fresh sequence
// numbers (same per-node rows, same timestamps), then each node's log is
// stably re-sorted by time so the per-node time order the out-of-core planner
// requires still holds. The result is a protocol-valid collection where one
// origin carries an order of magnitude more packets than any other.
func skewedLogs(t testing.TB, seed int64, reps int) (*Collection, NodeID, int64) {
	t.Helper()
	camp, err := RunCampaign(TinyCampaign(seed))
	if err != nil {
		t.Fatal(err)
	}
	logs := camp.Logs

	seen := make(map[PacketID]bool)
	perOrigin := make(map[NodeID]int)
	maxSeq := uint32(0)
	for _, n := range logs.Nodes() {
		for _, e := range logs.Log(n).Events() {
			if !e.Type.PacketScoped() {
				continue
			}
			if e.Packet.Seq > maxSeq {
				maxSeq = e.Packet.Seq
			}
			if !seen[e.Packet] {
				seen[e.Packet] = true
				perOrigin[e.Packet.Origin]++
			}
		}
	}
	hot, hotCount := NoNode, 0
	//refill:allow maprange — argmax with deterministic tie-break on the smaller ID
	for origin, count := range perOrigin {
		if count > hotCount || (count == hotCount && origin < hot) {
			hot, hotCount = origin, count
		}
	}
	if hotCount == 0 {
		t.Fatal("campaign has no packets")
	}

	out := NewCollection()
	for _, n := range logs.Nodes() {
		evs := logs.Log(n).Events()
		grown := make([]Event, 0, len(evs)*2)
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
		// Stable by time: replica rows carry their originals' timestamps,
		// so each replica packet's per-node row order mirrors the original
		// packet's exactly — a valid packet log.
		sort.SliceStable(grown, func(i, j int) bool { return grown[i].Time < grown[j].Time })
		l := out.Log(n)
		for _, e := range grown {
			l.Append(e)
		}
	}
	return out, camp.Sink, int64(camp.Duration)
}

func TestSkewedOriginSchedulerEquivalence(t *testing.T) {
	logs, sink, end := skewedLogs(t, 13, 12)
	opts := AnalyzerOptions{Sink: sink, End: end}
	serial, err := NewAnalyzer(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Analyze(logs)
	if len(want.Result.Flows) == 0 {
		t.Fatal("no flows")
	}
	wantFlows := serializeFlows(want.Result.Flows)
	wantReport := RenderBreakdown(want.Report)

	for _, workers := range []int{2, 8} {
		opts.Parallelism = workers
		an, err := NewAnalyzer(opts)
		if err != nil {
			t.Fatal(err)
		}
		out := an.Analyze(logs)
		if !reflect.DeepEqual(want.Result, out.Result) {
			t.Errorf("workers-%d: result diverged from serial", workers)
		}
		if got := serializeFlows(out.Result.Flows); got != wantFlows {
			t.Errorf("workers-%d: flow serialization diverged", workers)
		}
		if got := RenderBreakdown(out.Report); got != wantReport {
			t.Errorf("workers-%d: report diverged", workers)
		}
	}

	// Out-of-core over the same skewed campaign: snapshot it, analyze in
	// small residency windows (each window runs the same driver),
	// and require byte-identity with serial batch again.
	path := filepath.Join(t.TempDir(), "skewed.snap")
	if err := WriteSnapshot(path, logs); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	opts.Parallelism = 8
	ooc, err := NewAnalyzer(opts)
	if err != nil {
		t.Fatal(err)
	}
	out := ooc.AnalyzeSnapshot(snap, SnapshotOptions{WindowRows: 301, RetainFlows: true})
	if !reflect.DeepEqual(want.Result.Flows, out.Result.Flows) {
		t.Error("out-of-core: flows diverged from serial")
	}
	if got := RenderBreakdown(out.Report); got != wantReport {
		t.Error("out-of-core: report diverged")
	}
}
