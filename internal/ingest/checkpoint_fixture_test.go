package ingest

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/event"
	"repro/internal/event/snapfile"
)

// A checkpoint from before the pending store lost its origin shards.
//
// testdata/parent-pr17.ckpt.gz was written by the code of commit 821309a
// (PR 17, the parent of the PR that replaced the sixteen origin shards with
// one table) mid-way through the session below. To remake it, check that
// commit out, copy this file into its internal/ingest, and run
//
//	go test ./internal/ingest -run TestResumeParentCheckpoint -update-parent-checkpoint
//
// there; the file lands in internal/ingest/testdata of that checkout. It is
// gzipped because a checkpoint is a page-aligned container: ~100 KB of mostly
// padding that packs to about 2 KB.
//
// testdata/parent-unadvanced.ckpt.gz was written the same way by commit
// f3b66fc, the last whose sessions started their watermark at 0, with
// -run TestResumeUnadvancedParentCheckpoint in place of the test above.
var updateParentCheckpoint = flag.Bool("update-parent-checkpoint", false, "rewrite the selected test's testdata checkpoint from this checkout's code instead of checking it")

const (
	parentUnadvancedCheckpoint = "testdata/parent-unadvanced.ckpt.gz"

	parentCheckpoint  = "testdata/parent-pr17.ckpt.gz"
	parentCkptHorizon = 45
	parentCkptAdvance = 700
)

// parentCkptCampaign is 36 delivered packets from eight origins through two
// relays, so every relay log interleaves many origins — under the parent's
// store, many shards — with Info on a third of the rows, a server outage, and
// one packet stamped math.MaxInt64.
func parentCkptCampaign() *campaign {
	c := &campaign{sink: 1, end: 100_000}
	tick := int64(0)
	for i := 0; i < 36; i++ {
		origin := event.NodeID(4 + i%8)
		c.delivery(&tick, event.PacketID{Origin: origin, Seq: uint32(i/8 + 1)}, origin, event.NodeID(2+i%2), 1)
		switch i {
		case 12:
			c.evs = append(c.evs, event.Event{Node: event.Server, Type: event.ServerDown, Time: tick + 5})
		case 20:
			c.evs = append(c.evs, event.Event{Node: event.Server, Type: event.ServerUp, Time: tick + 5})
		}
	}
	for i := range c.evs {
		if i%3 == 0 {
			c.evs[i].Info = "q=3"
		}
	}
	c.evs = append(c.evs, event.Event{Node: 3, Type: event.Gen, Sender: 3,
		Packet: event.PacketID{Origin: 3, Seq: 9}, Time: math.MaxInt64})
	return c
}

// feedSorted appends each node's fragment in ascending node order, so the
// session a checkout writes the fixture from is the same session every time.
func feedSorted(t *testing.T, s *Session, frags map[event.NodeID][]event.Event) {
	t.Helper()
	nodes := make([]event.NodeID, 0, len(frags))
	for n := range frags {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if err := s.Append(n, frags[n]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeParentCheckpoint resumes the parent-written checkpoint at this
// commit, feeds it the rest of the session, and requires the drain to equal
// the uninterrupted session's. The fixture's pending rows are shard-major
// inside each node — the test checks that they really are out of log order,
// or it would prove nothing about old files.
func TestResumeParentCheckpoint(t *testing.T) {
	c := parentCkptCampaign()
	first, second := feedHalves(c)
	orig := ckSession(t, c, parentCkptHorizon)
	feedSorted(t, orig, first)
	if n, err := orig.Advance(parentCkptAdvance); err != nil || n == 0 {
		t.Fatalf("Advance finalized %d packets (err %v); the fixture needs some finalized and some pending", n, err)
	}
	if *updateParentCheckpoint {
		writeFixture(t, orig, parentCheckpoint)
		return
	}
	img, path := readFixture(t, parentCheckpoint)

	// The file's pending rows: the same rows per node as this commit's store
	// holds at the same point, in a different order on at least one node.
	snap, err := snapfile.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	old, err := event.CollectionFromSections(snap, ckPendBase)
	if err != nil {
		t.Fatal(err)
	}
	now := event.NewCollection()
	orig.store.AppendPendingTo(now)
	reordered := 0
	for _, n := range now.Nodes() {
		if old.Logs[n] == nil {
			t.Fatalf("node %v has pending rows in this session and none in the fixture", n)
		}
		was, is := old.Logs[n].Events(), now.Logs[n].Events()
		if !reflect.DeepEqual(was, is) {
			reordered++
		}
		byPacket := func(evs []event.Event) {
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].Packet.Less(evs[j].Packet) })
		}
		byPacket(was)
		byPacket(is)
		if !reflect.DeepEqual(was, is) {
			t.Fatalf("node %v: the fixture's pending rows are not this session's pending rows", n)
		}
	}
	if reordered == 0 {
		t.Fatal("the fixture's pending rows are in log order on every node: it is not a shard-major file")
	}

	res, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config(), Horizon: parentCkptHorizon}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) || want.PendingRows == 0 {
		t.Fatalf("resumed stats %+v, want %+v with rows pending", got, want)
	}
	for _, s := range []*Session{orig, res} {
		feedSorted(t, s, second)
	}
	_, origRep := orig.Drain()
	_, resRep := res.Drain()
	if origRep.Total() != 37 {
		t.Fatalf("uninterrupted session drained %d packets, want 37", origRep.Total())
	}
	if !reflect.DeepEqual(origRep.Outcomes, resRep.Outcomes) {
		t.Errorf("outcomes diverged:\n got %+v\nwant %+v", resRep.Outcomes, origRep.Outcomes)
	}
	if !reflect.DeepEqual(origRep.Outages, resRep.Outages) {
		t.Errorf("outages diverged: got %+v want %+v", resRep.Outages, origRep.Outages)
	}
	if !reflect.DeepEqual(origRep.Breakdown(), resRep.Breakdown()) {
		t.Errorf("breakdown diverged: got %v want %v", resRep.Breakdown(), origRep.Breakdown())
	}
	if !reflect.DeepEqual(origRep.SourcePoints(), resRep.SourcePoints()) || !reflect.DeepEqual(origRep.PositionPoints(), resRep.PositionPoints()) {
		t.Error("source/position points diverged")
	}
	if !reflect.DeepEqual(orig.Stats(), res.Stats()) {
		t.Errorf("drained stats diverged: got %+v want %+v", res.Stats(), orig.Stats())
	}
}

// shifted returns smallCampaign with every timestamp, and the campaign end,
// moved by d.
func shifted(d int64) *campaign {
	c := smallCampaign()
	c.end += d
	for i := range c.evs {
		c.evs[i].Time += d
	}
	return c
}

// TestResumeUnadvancedParentCheckpoint resumes a checkpoint that commit
// f3b66fc wrote from a session on clocks below zero that had taken every row
// but never advanced. That code started the session watermark at 0 and
// stored it so; read back as is, it would keep every advance on these clocks
// a no-op until Drain. Resume reads a never-advanced session's watermark as
// math.MinInt64, where a fresh session starts.
func TestResumeUnadvancedParentCheckpoint(t *testing.T) {
	c := shifted(-10_000)
	orig := ckSession(t, c, 0)
	feedSorted(t, orig, c.perNode())
	if *updateParentCheckpoint {
		writeFixture(t, orig, parentUnadvancedCheckpoint)
		return
	}
	_, path := readFixture(t, parentUnadvancedCheckpoint)
	res, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config()}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) || want.Watermark != math.MinInt64 {
		t.Fatalf("resumed stats %+v, want %+v at watermark MinInt64", got, want)
	}
	// As in TestSessionNegativeClocksFinalize: the first packet completes.
	for _, s := range []*Session{orig, res} {
		if n, err := s.Advance(-1); err != nil || n != 1 {
			t.Errorf("Advance(-1) finalized %d packets (err %v), want 1", n, err)
		}
	}
	_, origRep := orig.Drain()
	_, resRep := res.Drain()
	if !reflect.DeepEqual(origRep.Outcomes, resRep.Outcomes) {
		t.Errorf("outcomes diverged:\n got %+v\nwant %+v", resRep.Outcomes, origRep.Outcomes)
	}
	if !reflect.DeepEqual(orig.Stats(), res.Stats()) {
		t.Errorf("drained stats diverged: got %+v want %+v", res.Stats(), orig.Stats())
	}
}

// writeFixture gzips s's checkpoint into dst, relative to the package.
func writeFixture(t *testing.T, s *Session, dst string) {
	t.Helper()
	raw := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := s.WriteCheckpoint(raw); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var z bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&z, gzip.BestCompression) // the level is valid
	zw.Write(img)                                          // into a bytes.Buffer: cannot fail
	zw.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, z.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d bytes (%d unpacked)", dst, z.Len(), len(img))
}

// readFixture unpacks the gzipped checkpoint src and returns its bytes and
// a path to them under t.TempDir.
func readFixture(t *testing.T, src string) (img []byte, path string) {
	t.Helper()
	zf, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer zf.Close()
	zr, err := gzip.NewReader(zf)
	if err != nil {
		t.Fatal(err)
	}
	if img, err = io.ReadAll(zr); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "parent.ckpt")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return img, path
}
