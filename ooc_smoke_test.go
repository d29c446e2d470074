package refill

// Out-of-core smoke: analyze a snapshot several times larger than the Go
// heap limit and require the report to be byte-identical to batch analysis
// of the same campaign. CI runs this gated test in its own leg with
// GOMEMLIMIT set well below the snapshot size (see .github/workflows/
// ci.yml): the windowed session reads each node's rows of a window from the
// file into one recycled span, so the heap holds that span plus the
// in-flight pending rows, and the analysis proceeds where a fully-resident
// load would thrash. GOMEMLIMIT bounds only the Go heap, so on Linux the test
// also bounds the file pages the process holds mapped in (RssFile), which no
// heap limit sees: they must grow by less than an eighth of the snapshot. The campaign is synthetic (a multi-hop chain per packet) so the
// row volume is controlled exactly and the completeness horizon is known by
// construction rather than measured.

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/event"
)

// chainCampaign synthesizes packets complete-delivery chains over the path
// origin -> relay1 -> relay2 -> sink (plus the server hand-off), timestamps
// strictly increasing, ~11 rows per packet. Within-packet spread is
// (rows-1)*tickStep by construction.
func chainCampaign(packets, origins int) (logs *Collection, sink NodeID, end int64, horizon int64) {
	const tickStep = 5
	sink = NodeID(1)
	relay1, relay2 := NodeID(2), NodeID(3)
	logs = NewCollection()
	tick := int64(0)
	stamp := func(e Event) {
		tick += tickStep
		e.Time = tick
		logs.Add(e)
	}
	for p := 0; p < packets; p++ {
		origin := NodeID(4 + p%origins)
		pkt := PacketID{Origin: origin, Seq: uint32(p/origins + 1)}
		path := []NodeID{origin, relay1, relay2, sink}
		stamp(Event{Node: origin, Type: event.Gen, Sender: origin, Packet: pkt})
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			stamp(Event{Node: a, Type: event.Trans, Sender: a, Receiver: b, Packet: pkt})
			stamp(Event{Node: b, Type: event.Recv, Sender: a, Receiver: b, Packet: pkt})
			stamp(Event{Node: a, Type: event.AckRecvd, Sender: a, Receiver: b, Packet: pkt})
		}
		stamp(Event{Node: event.Server, Type: event.ServerRecv, Sender: sink, Receiver: event.Server, Packet: pkt})
	}
	return logs, sink, tick + 1, 11 * tickStep
}

// digestOutcomes folds every outcome into one hash so the batch reference
// can be released before the windowed run (retaining 400k outcomes twice
// would dominate the heap this test exists to bound).
func digestOutcomes(outs []Outcome) uint64 {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%v|%v|%v\n", o.Packet, o.Cause, o.Position)
	}
	return h.Sum64()
}

func TestOutOfCoreSnapshotSmoke(t *testing.T) {
	if os.Getenv("REFILL_OOC_SMOKE") == "" {
		t.Skip("set REFILL_OOC_SMOKE=1 (and GOMEMLIMIT below the snapshot size) to run the out-of-core smoke")
	}
	logs, sink, end, horizon := chainCampaign(400_000, 64)
	an, err := NewAnalyzer(AnalyzerOptions{}, WithSink(sink), WithWindow(0, end), WithParallelism(-1))
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(logs)
	wantText := RenderBreakdown(want.Report)
	wantTotal := want.Report.Total()
	wantDigest := digestOutcomes(want.Report.Outcomes)
	if wantTotal == 0 {
		t.Fatal("degenerate campaign")
	}
	want = nil

	path := snapshotPath(t, logs)
	logs = nil
	runtime.GC()
	fileBefore, haveRss := rssFile(t)
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// The point of the leg: the snapshot must dwarf the heap limit, or the
	// run proves nothing. SetMemoryLimit(-1) reads the limit GOMEMLIMIT
	// installed without changing it.
	if limit := debug.SetMemoryLimit(-1); limit < int64(1)<<62 {
		if int64(snap.Rows())*29 < 2*limit {
			t.Fatalf("snapshot (%d rows, ~%d MB of columns) is not at least 2x GOMEMLIMIT (%d MB) — grow the campaign or shrink the limit", snap.Rows(), int64(snap.Rows())*29>>20, limit>>20)
		}
	} else {
		t.Log("GOMEMLIMIT not set; running unbounded (CI sets it)")
	}

	got := an.AnalyzeSnapshot(snap, SnapshotOptions{WindowRows: 200_000, SessionConfig: SessionConfig{Horizon: horizon}})
	if got.Result.Flows != nil {
		t.Error("flows retained without RetainFlows")
	}
	if got.Report.Total() != wantTotal {
		t.Errorf("out-of-core report totals %d packets, batch %d", got.Report.Total(), wantTotal)
	}
	if d := digestOutcomes(got.Report.Outcomes); d != wantDigest {
		t.Errorf("out-of-core outcomes digest %#x, batch %#x", d, wantDigest)
	}
	if gotText := RenderBreakdown(got.Report); gotText != wantText {
		t.Errorf("out-of-core breakdown diverged:\n got: %s\nwant: %s", gotText, wantText)
	}
	if haveRss {
		fileAfter, _ := rssFile(t)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size := fi.Size()
		t.Logf("RssFile %d MB before open, %d MB after the analysis; snapshot %d MB", fileBefore>>20, fileAfter>>20, size>>20)
		if fileAfter-fileBefore >= size/8 {
			t.Errorf("RssFile grew by %d MB over the analysis, not under an eighth of the %d MB snapshot: its pages stayed mapped in", (fileAfter-fileBefore)>>20, size>>20)
		}
	}
}

// rssFile returns the process's resident file-backed bytes (RssFile in
// /proc/self/status), and false where the kernel reports none.
func rssFile(t *testing.T) (int64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "RssFile:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return kb << 10, true
		}
	}
	return 0, false
}
