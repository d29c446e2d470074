package refill

// Equivalence suite for the structure-of-arrays event storage: the columnar
// Batch behind Log/PacketView must be invisible at the facade. Every test
// here compares the pipeline's output against a detour through plain
// []Event values (the array-of-structs view) or through the serialized
// formats, and demands byte identity — not "close enough".

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// aosRebuild copies a collection out to plain Event structs and back in
// through Add, one event at a time — the array-of-structs detour. Any
// state the columnar storage failed to round-trip would diverge here.
func aosRebuild(c *Collection) *Collection {
	out := NewCollection()
	for _, n := range c.Nodes() {
		for _, e := range c.Logs[n].Events() {
			out.Add(e)
		}
	}
	return out
}

func TestSoAFacadeEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		camp, err := RunCampaign(TinyCampaign(seed))
		if err != nil {
			t.Fatal(err)
		}
		an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: int64(camp.Duration)})
		if err != nil {
			t.Fatal(err)
		}
		direct := an.Analyze(camp.Logs)
		detour := an.Analyze(aosRebuild(camp.Logs))
		if len(direct.Result.Flows) == 0 {
			t.Fatalf("seed %d: no flows", seed)
		}
		if !reflect.DeepEqual(direct.Result.Flows, detour.Result.Flows) {
			t.Errorf("seed %d: flows differ after the AoS detour", seed)
		}
		if !reflect.DeepEqual(direct.Result.Operational, detour.Result.Operational) {
			t.Errorf("seed %d: operational events differ after the AoS detour", seed)
		}
		if a, b := RenderBreakdown(direct.Report), RenderBreakdown(detour.Report); a != b {
			t.Errorf("seed %d: reports differ after the AoS detour:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

func TestSoATableIIFixtureEquivalence(t *testing.T) {
	pkt := PacketID{Origin: 1, Seq: 1}
	logs := NewCollection()
	logs.Add(mkEvent(Trans, 1, 2, pkt))
	logs.Add(mkEvent(Recv, 2, 3, pkt))
	an, err := NewAnalyzer(AnalyzerOptions{Sink: 100, Protocol: TableIIProtocol()})
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs).Result.Flows[0].String()
	got := an.Analyze(aosRebuild(logs)).Result.Flows[0].String()
	if want != got {
		t.Errorf("Table II flow diverged: %q vs %q", want, got)
	}
	if want != "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv" {
		t.Errorf("Table II flow = %q", want)
	}
}

func TestSoATextRoundTripByteIdentical(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(5))
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteLogs(&first, camp.Logs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogs(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteLogs(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("text round trip is not byte-identical")
	}
}

func TestSoABinaryRoundTripByteIdentical(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteLogsBinary(&first, camp.Logs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogsBinary(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteLogsBinary(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("binary round trip is not byte-identical")
	}
	// Serializing the AoS detour must also reproduce the exact bytes: the
	// codec walks the columns directly, and a missed column would show up
	// as a difference only on this path.
	var detour bytes.Buffer
	if err := WriteLogsBinary(&detour, aosRebuild(camp.Logs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), detour.Bytes()) {
		t.Error("AoS detour changed the binary serialization")
	}
}

// TestInfoEveryPath carries Info on every fifth packet row of a campaign
// through the paths whose arenas analysis workers read at once — batch
// Analyze on four workers, the out-of-core snapshot and a session drain —
// and requires each to equal serial batch, flows' Info included. Every arena
// keeps Info in its one sparse table, filled before any worker starts; CI's
// -race leg runs this.
func TestInfoEveryPath(t *testing.T) {
	camp, err := RunCampaign(TinyCampaign(7))
	if err != nil {
		t.Fatal(err)
	}
	logs, i := NewCollection(), 0
	for _, n := range camp.Logs.Nodes() {
		for _, e := range camp.Logs.Logs[n].Events() {
			if i++; i%5 == 0 && e.Type.PacketScoped() {
				e.Info = fmt.Sprintf("rssi=-%d", 40+i%50)
			}
			logs.Add(e)
		}
	}
	end := int64(camp.Duration)
	serial, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: end})
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(AnalyzerOptions{Sink: camp.Sink, End: end, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Analyze(logs)
	infos := 0
	for _, f := range want.Result.Flows {
		for _, it := range f.Items {
			if it.Event.Info != "" {
				infos++
			}
		}
	}
	if infos == 0 {
		t.Fatal("no flow item carries Info; the Info case is not covered")
	}
	same := func(t *testing.T, flows []*Flow, operational []Event, rep *Report) {
		t.Helper()
		if !reflect.DeepEqual(want.Result.Flows, flows) {
			t.Error("flows diverged from serial batch")
		}
		if !reflect.DeepEqual(want.Result.Operational, operational) {
			t.Error("operational events diverged from serial batch")
		}
		if a, b := RenderBreakdown(want.Report), RenderBreakdown(rep); a != b {
			t.Errorf("report diverged from serial batch:\n%s\nwant:\n%s", b, a)
		}
	}
	t.Run("analyze-workers-4", func(t *testing.T) {
		got := an.Analyze(logs)
		same(t, got.Result.Flows, got.Result.Operational, got.Report)
	})
	t.Run("snapshot", func(t *testing.T) {
		snap, err := OpenSnapshot(snapshotPath(t, logs))
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		got := an.AnalyzeSnapshot(snap, SnapshotOptions{WindowRows: 257, RetainFlows: true})
		same(t, got.Result.Flows, got.Result.Operational, got.Report)
	})
	t.Run("session", func(t *testing.T) {
		sess := sessionFor(t, an, logs, referenceMaxPacketSpread(logs), true)
		const rounds = 4
		for r := 0; r < rounds; r++ {
			for _, n := range logs.Nodes() {
				evs := logs.Log(n).Events()
				if err := sess.Append(n, evs[len(evs)*r/rounds:len(evs)*(r+1)/rounds]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Advance(end); err != nil {
				t.Fatal(err)
			}
		}
		if sess.Stats().FinalizedPackets == 0 {
			t.Error("no packet finalized before drain; retirement was never exercised")
		}
		res, rep := sess.Drain()
		same(t, res.Flows, res.Operational, rep)
	})
}
