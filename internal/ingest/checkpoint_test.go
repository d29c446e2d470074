package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/event/snapfile"
)

// ckSession builds a checkpointable session (flows not retained) over the
// campaign's engine/diagnosis config.
func ckSession(t *testing.T, c *campaign, horizon int64) *Session {
	t.Helper()
	s, err := NewSession(Config{
		Engine: ctpEngine(t, c.sink), Diagnosis: c.config(),
		Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feedHalves splits each node's log in two and returns the two fragment maps.
func feedHalves(c *campaign) (first, second map[event.NodeID][]event.Event) {
	first = make(map[event.NodeID][]event.Event)
	second = make(map[event.NodeID][]event.Event)
	for n, evs := range c.perNode() {
		mid := len(evs) / 2
		first[n], second[n] = evs[:mid], evs[mid:]
	}
	return first, second
}

// TestCheckpointResumeMatchesUninterrupted is the core contract: write a
// checkpoint mid-session, keep driving the original session, and drive a
// Resume of the checkpoint through the identical remaining schedule — the
// drained reports and lifecycle stats must match exactly (and the original
// session must be undisturbed by having checkpointed).
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	c := smallCampaign()
	// Give some packet rows Info payloads so the checkpoint's info side
	// tables are exercised, not just the hot columns.
	for i := range c.evs {
		if i%3 == 0 {
			c.evs[i].Info = "q=3"
		}
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")

	orig := ckSession(t, c, 0)
	first, second := feedHalves(c)
	for n, evs := range first {
		if err := orig.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Advance(40); err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	res, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config()}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed stats %+v, want %+v", got, want)
	}

	for _, s := range []*Session{orig, res} {
		for n, evs := range second {
			if err := s.Append(n, evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, origRep := orig.Drain()
	_, resRep := res.Drain()
	if !reflect.DeepEqual(origRep.Outcomes, resRep.Outcomes) {
		t.Errorf("outcomes diverged:\n got %+v\nwant %+v", resRep.Outcomes, origRep.Outcomes)
	}
	if !reflect.DeepEqual(origRep.Outages, resRep.Outages) {
		t.Errorf("outages diverged: got %+v want %+v", resRep.Outages, origRep.Outages)
	}
	if !reflect.DeepEqual(origRep.Breakdown(), resRep.Breakdown()) {
		t.Errorf("breakdown diverged: got %v want %v", resRep.Breakdown(), origRep.Breakdown())
	}
	if !reflect.DeepEqual(orig.Stats(), res.Stats()) {
		t.Errorf("drained stats diverged: got %+v want %+v", res.Stats(), orig.Stats())
	}
}

// TestResumeUnorderedOutcomes resumes a checkpoint whose outcome section is
// out of packet-ID order — as every file written before the session kept its
// outcomes sorted is, in finalization order — and requires the drain to
// equal batch analysis. Resume must sort what it reads: the session's later
// windows merge into the restored outcomes on the assumption that they are
// sorted, and nothing sorts them again. The first packet's gen is logged
// by the sink instead of its origin — an inferred event and an anomaly
// finalized before the checkpoint — so the drain must also carry batch's
// counters, which only the checkpoint's counters section can restore.
func TestResumeUnorderedOutcomes(t *testing.T) {
	c := parentCkptCampaign()
	if g := c.evs[0]; g.Type != event.Gen || g.Node != g.Packet.Origin {
		t.Fatalf("the campaign opens with %+v, not an origin's gen", g)
	}
	c.evs[0].Node = c.sink
	const horizon = 100 // a delivery spans 70 ticks
	path := filepath.Join(t.TempDir(), "unordered.ckpt")
	orig := ckSession(t, c, horizon)
	first, second := feedHalves(c)
	feedSorted(t, orig, first)
	if n, err := orig.Advance(parentCkptAdvance); err != nil || n < 3 {
		t.Fatalf("Advance finalized %d packets (err %v); the test needs several", n, err)
	}
	if st := orig.Stats(); st.InferredEvents == 0 || st.Anomalies == 0 {
		t.Fatalf("checkpointing at %+v: the counters are not exercised", st)
	}
	slices.Reverse(orig.acc.Outcomes)
	err := orig.WriteCheckpoint(path)
	slices.Reverse(orig.acc.Outcomes)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config(), Horizon: horizon}, path)
	if err != nil {
		t.Fatal(err)
	}
	feedSorted(t, res, second)
	if n, err := res.Advance(c.end); err != nil || n == 0 {
		t.Fatalf("Advance after resume finalized %d packets (err %v); the restored outcomes were never merged into", n, err)
	}
	gotRes, got := res.Drain()
	wantRes, want := ctpEngine(t, c.sink).AnalyzeDiagnosed(c.collection(), 1, c.config(), true)
	if gotRes.InferredEvents != wantRes.InferredEvents || gotRes.Anomalies != wantRes.Anomalies {
		t.Errorf("drained counters %d/%d, batch %d/%d", gotRes.InferredEvents, gotRes.Anomalies,
			wantRes.InferredEvents, wantRes.Anomalies)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Errorf("outcomes diverged from batch:\n got %+v\nwant %+v", got.Outcomes, want.Outcomes)
	}
	if !reflect.DeepEqual(got.Breakdown(), want.Breakdown()) {
		t.Errorf("breakdown diverged: got %v want %v", got.Breakdown(), want.Breakdown())
	}
	if !reflect.DeepEqual(got.SourcePoints(), want.SourcePoints()) || !reflect.DeepEqual(got.PositionPoints(), want.PositionPoints()) {
		t.Error("source/position points diverged from batch")
	}
}

// TestResumeHugeOutcomePosition resumes a checkpoint whose outcome section
// places a loss at node 3,000,000,000, as a damaged or hostile file may: the
// file's bytes are outside input, and Resume folds every restored outcome
// into the aggregate. The fold must take the position in bounded memory, and
// the resumed report must read the outcomes the file holds.
func TestResumeHugeOutcomePosition(t *testing.T) {
	const huge event.NodeID = 3_000_000_000
	c := smallCampaign()
	path := filepath.Join(t.TempDir(), "huge.ckpt")
	orig := ckSession(t, c, 0)
	for n, evs := range c.perNode() {
		if err := orig.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := orig.Advance(c.end); err != nil || n == 0 {
		t.Fatalf("Advance finalized %d packets (err %v)", n, err)
	}
	orig.acc.Outcomes[0].Position = huge
	if err := orig.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config()}, path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("resuming a %d-outcome checkpoint allocated %d bytes", len(orig.acc.Outcomes), grew)
	}
	// The session's own aggregate is the fold of the restored outcomes; a
	// report would heal a stale one on read, at the cost of a refold per read.
	fold := diagnosis.NewAggregate(c.sink, 0, 0, 0)
	for _, o := range res.acc.Outcomes {
		fold.Add(o)
	}
	if !reflect.DeepEqual(res.acc.Aggregate, fold) {
		t.Error("the resumed aggregate is not the fold of the restored outcomes")
	}
	rep := res.Snapshot()
	o := rep.Outcomes[0]
	if o.Position != huge {
		t.Fatalf("resumed outcome position %v, want %v", o.Position, huge)
	}
	if got := rep.LossesBySite(o.Cause)[huge]; got != 1 {
		t.Errorf("LossesBySite(%v)[%v] = %d, want 1", o.Cause, huge, got)
	}
	_, drained := res.Drain()
	if drained.Outcomes[0] != o || drained.LossesBySite(o.Cause)[huge] != 1 {
		t.Errorf("drained report lost the resumed outcome %+v: %v", o, drained.LossesBySite(o.Cause))
	}
}

// TestCheckpointBeforeAnyAdvance covers the all-pending shape: no outcomes,
// no finalized packets, every row still in the store.
func TestCheckpointBeforeAnyAdvance(t *testing.T) {
	c := smallCampaign()
	path := filepath.Join(t.TempDir(), "fresh.ckpt")
	orig := ckSession(t, c, 25)
	for n, evs := range c.perNode() {
		if err := orig.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config(), Horizon: 25}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed stats %+v, want %+v", got, want)
	}
	_, origRep := orig.Drain()
	_, resRep := res.Drain()
	if !reflect.DeepEqual(origRep.Outcomes, resRep.Outcomes) {
		t.Errorf("outcomes diverged after all-pending resume")
	}
	if resRep.Total() != 3 {
		t.Errorf("resumed drain total = %d, want 3", resRep.Total())
	}
}

func TestCheckpointRefusals(t *testing.T) {
	c := smallCampaign()
	path := filepath.Join(t.TempDir(), "refused.ckpt")

	retained := c.session(t, ctpEngine(t, c.sink), 0) // RetainFlows: true
	if err := retained.WriteCheckpoint(path); !errors.Is(err, ErrCheckpointFlows) {
		t.Errorf("RetainFlows checkpoint: %v, want ErrCheckpointFlows", err)
	}

	drained := ckSession(t, c, 0)
	drained.Drain()
	if err := drained.WriteCheckpoint(path); !errors.Is(err, ErrDrained) {
		t.Errorf("drained checkpoint: %v, want ErrDrained", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("refused checkpoint left a file behind")
	}
}

// TestResumeRestoresWatermarks: the watermark section is the only record
// of a punctuated silent node and of a node whose rows have all retired, so
// a resumed session must register both at their marks and advance exactly
// as the one that wrote the checkpoint.
func TestResumeRestoresWatermarks(t *testing.T) {
	c := smallCampaign()
	path := filepath.Join(t.TempDir(), "wm.ckpt")
	s := ckSession(t, c, 0)
	for n, evs := range c.perNode() {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	s.Punctuate(9, 50)
	if _, err := s.Advance(c.end); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config()}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Stats(), s.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed stats %+v, want %+v", got, want)
	}
	for _, sess := range []*Session{s, r} {
		sess.Punctuate(9, 95)
	}
	ns, err := s.Advance(c.end)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := r.Advance(c.end)
	if err != nil {
		t.Fatal(err)
	}
	if ns == 0 || nr != ns || r.Watermark() != s.Watermark() {
		t.Fatalf("resumed advance finalized %d at watermark %d, want %d at %d (and some)", nr, r.Watermark(), ns, s.Watermark())
	}
}

// TestCheckpointFailedWriteKeepsPrevious: a checkpoint write that fails —
// here its final rename, onto a non-empty directory — leaves the previous
// checkpoint byte-identical and no temp file behind (snapfile.WriteFile
// pins the same after a failure mid-write).
func TestCheckpointFailedWriteKeepsPrevious(t *testing.T) {
	c := smallCampaign()
	dir := t.TempDir()
	path, blocked := filepath.Join(dir, "s.ckpt"), filepath.Join(dir, "blocked")
	s := ckSession(t, c, 25)
	for n, evs := range c.perNode() {
		if err := s.Append(n, evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(blocked, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(c.end); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(blocked); err == nil {
		t.Fatal("checkpoint onto a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || !slices.Equal(got, want) {
		t.Fatalf("previous checkpoint changed by a failed write (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".refill-") {
			t.Errorf("failed checkpoint left temp file %s", e.Name())
		}
	}
}

func TestResumeValidatesConfigAndFile(t *testing.T) {
	c := smallCampaign()
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.ckpt")
	s := ckSession(t, c, 40)
	for n, evs := range c.perNode() {
		s.Append(n, evs)
	}
	if err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	base := func() Config {
		return Config{Engine: ctpEngine(t, c.sink), Diagnosis: c.config(), Horizon: 40}
	}
	if _, err := Resume(base(), path); err != nil {
		t.Fatalf("matching resume failed: %v", err)
	}

	bad := base()
	bad.Diagnosis.Sink = 9
	if _, err := Resume(bad, path); err == nil {
		t.Error("sink mismatch not rejected")
	}
	bad = base()
	bad.Horizon = 7
	if _, err := Resume(bad, path); err == nil {
		t.Error("horizon mismatch not rejected")
	}

	if _, err := Resume(base(), filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file not rejected")
	}
	junk := filepath.Join(dir, "junk.ckpt")
	if err := os.WriteFile(junk, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(base(), junk); err == nil {
		t.Error("junk file not rejected")
	}

	// One flipped bit in the pending rows' seq column: the footer, the section
	// table and the geometry are all intact, so only the data CRC can tell —
	// unverified, the resumed session drains a phantom packet.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := snap.Section(ckPendBase + 6)
	if !ok || len(seq) == 0 {
		t.Fatal("checkpoint has no pending seq column")
	}
	seq[0] ^= 0x40 // sections alias img
	flipped := filepath.Join(dir, "flipped.ckpt")
	if err := os.WriteFile(flipped, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(base(), flipped); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("flipped data bit: Resume returned %v, want a data CRC error", err)
	}
}
