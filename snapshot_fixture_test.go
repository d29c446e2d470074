package refill

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/event/snapfile"
	"repro/internal/sim"
)

// A snapshot from before a batch kept its node once.
//
// testdata/parent-96686d2.snap.gz was written by the code of commit 96686d2,
// the last whose snapshots carried a node column (section 1), from
// workload.Tiny(3) with Period set to 40 sim.Minute: 33,573 rows on 26
// nodes, sink 1, two days. To remake it, check that commit out and, there,
// run workload.Run on that config and event.WriteSnapshot on its Logs, then
// gzip the file (best compression). It is gzipped because a snapshot is a
// page-aligned container.
const (
	parentSnapshot     = "testdata/parent-96686d2.snap.gz"
	parentSnapshotSink = 1
	parentSnapshotEnd  = int64(2 * sim.Day)
	// parentNodeSection is the section id the node column had, at base 0.
	parentNodeSection = 1
)

// TestSnapshotParentFile opens the parent-written snapshot: it passes
// Verify, and a snapshot the current writer makes of its collection holds the
// same logs, has every section of the old file but the node column, with
// the same bytes, and is analyzed to the same report and flows.
func TestSnapshotParentFile(t *testing.T) {
	zf, err := os.Open(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer zf.Close()
	zr, err := gzip.NewReader(zf)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(t.TempDir(), "parent.snap")
	if err := os.WriteFile(oldPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := OpenSnapshot(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.Verify(); err != nil {
		t.Fatalf("the parent file fails Verify: %v", err)
	}
	if old.Rows() != 33_573 || len(old.Collection().Nodes()) != 26 {
		t.Fatalf("the parent file holds %d rows on %d nodes, want 33573 on 26", old.Rows(), len(old.Collection().Nodes()))
	}

	newPath := snapshotPath(t, old.Collection().Clone())
	cur, err := OpenSnapshot(newPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	oc, nc := old.Collection(), cur.Collection()
	if !reflect.DeepEqual(oc.Nodes(), nc.Nodes()) {
		t.Fatalf("nodes %v, parent file %v", nc.Nodes(), oc.Nodes())
	}
	for _, n := range oc.Nodes() {
		if !reflect.DeepEqual(oc.Logs[n].Events(), nc.Logs[n].Events()) {
			t.Fatalf("node %v: the log read from the parent file differs from the rewritten one", n)
		}
	}

	oldFile, err := snapfile.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	newImg, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	newFile, err := snapfile.Parse(newImg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := oldFile.Section(parentNodeSection); !ok {
		t.Fatal("the parent file has no node column: it is not an old file")
	}
	var want []uint32
	for _, s := range oldFile.Sections() {
		if s.ID != parentNodeSection {
			want = append(want, s.ID)
		}
	}
	var got []uint32
	for _, s := range newFile.Sections() {
		got = append(got, s.ID)
		o, _ := oldFile.Section(s.ID)
		if n, _ := newFile.Section(s.ID); !bytes.Equal(o, n) {
			t.Errorf("section %d differs from the parent file's", s.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sections %v, want the parent file's less the node column: %v", got, want)
	}

	an, err := NewAnalyzer(AnalyzerOptions{Sink: parentSnapshotSink, End: parentSnapshotEnd})
	if err != nil {
		t.Fatal(err)
	}
	opts := SnapshotOptions{WindowRows: 4096, RetainFlows: true}
	wantOut := an.AnalyzeSnapshot(old, opts)
	gotOut := an.AnalyzeSnapshot(cur, opts)
	if wantOut.Report.Total() == 0 {
		t.Fatal("degenerate fixture: no packets analyzed")
	}
	checkDrained(t, wantOut.Result, gotOut.Result, true)
	checkSameReport(t, wantOut.Report, gotOut.Report, int64(sim.Day), 2)
	if g, w := RenderBreakdown(gotOut.Report), RenderBreakdown(wantOut.Report); g != w {
		t.Errorf("report diverged from the parent file's:\n%s\nwant:\n%s", g, w)
	}
}
