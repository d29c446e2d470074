package event

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// readsThroughFile is true where OpenSnapshot maps the file and ReadSpan
// reads it with pread, so a file truncated under an open snapshot makes a
// read come up short; the portable Open (nommap_test.go) has read the whole
// file already.
var readsThroughFile = true

// wideTimeDomain is a time-ordered collection whose timestamps span more than
// math.MaxInt64: 200 ordinary packets between one row at MinInt64+10 and one
// at MaxInt64-10, both about packet 4:1.
func wideTimeDomain() *Collection {
	c := NewCollection()
	c.Add(pev(4, 4, 1, Trans, math.MinInt64+10))
	for i := 0; i < 200; i++ {
		origin := NodeID(4 + i%3)
		c.Add(pev(origin, origin, uint32(i+2), Trans, int64(i)*100))
		c.Add(pev(1, origin, uint32(i+2), Recv, int64(i)*100+2))
	}
	c.Add(pev(5, 4, 1, Recv, math.MaxInt64-10))
	return c
}

// TestPlanWindowsWideTimeDomain: the planner bisects the time domain, and the
// midpoint lo+(hi-lo)/2 wraps when hi-lo exceeds math.MaxInt64 — the loop then
// never ends. Run under a deadline so that failure is a failure, not a hang.
func TestPlanWindowsWideTimeDomain(t *testing.T) {
	c := wideTimeDomain()
	done := make(chan *WindowPlan, 1)
	go func() {
		p, err := PlanWindows(c, 64)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	var p *WindowPlan
	select {
	case p = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("PlanWindows still bisecting after 20 s")
	}
	if p == nil {
		t.FailNow()
	}
	if p.Windows() < 2 || p.Cut(p.Windows()-1) != math.MaxInt64 {
		t.Fatalf("%d windows, last cut %d", p.Windows(), p.Cut(p.Windows()-1))
	}
	fed := 0
	for k := 0; k < p.Windows(); k++ {
		if k > 0 && p.Cut(k) <= p.Cut(k-1) {
			t.Fatalf("cut %d = %d does not ascend past %d", k, p.Cut(k), p.Cut(k-1))
		}
		for i := range p.Nodes() {
			lo, hi := p.Span(k, i)
			fed += hi - lo
		}
	}
	if fed != c.TotalEvents() {
		t.Fatalf("windows feed %d rows, collection holds %d", fed, c.TotalEvents())
	}
}

// TestMaxPacketSpreadSaturates: a packet whose two rows are more than
// math.MaxInt64 apart has no representable spread; the measure must saturate
// instead of wrapping to a small (or negative) horizon.
func TestMaxPacketSpreadSaturates(t *testing.T) {
	c := NewCollection()
	c.Add(pev(1, 1, 1, Trans, 10))
	c.Add(pev(2, 1, 1, Recv, 25))
	if got := MaxPacketSpread(c); got != 15 {
		t.Fatalf("spread = %d, want 15", got)
	}
	c.Add(pev(4, 4, 1, Trans, math.MinInt64+10))
	c.Add(pev(5, 4, 1, Recv, math.MaxInt64-10))
	if got := MaxPacketSpread(c); got != math.MaxInt64 {
		t.Fatalf("spread = %d, want it saturated at MaxInt64", got)
	}
}

// orderedSnapshot writes a collection of rows time-ordered per node (ties
// included) to a snapshot file and opens it; every infoEvery-th row carries
// an Info string (none when infoEvery is 0).
func orderedSnapshot(t *testing.T, rows, infoEvery int) (*Collection, *Snapshot, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	c := NewCollection()
	for i := 0; i < rows; i++ {
		e := randomEvent(rng)
		e.Time = int64(i / 3)
		if infoEvery > 0 && i%infoEvery == 0 {
			e.Info = fmt.Sprintf("rssi=-%d", i%90)
		}
		c.Add(e)
	}
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := WriteSnapshot(path, c); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return c, s, path
}

// TestSnapshotReadSpan: reading every (window, node) span of a plan from the
// file, through one recycled Batch, rebuilds each log's node, its six columns
// and its Info exactly, at windows from one row to the whole collection.
// Empty spans are read too and must come back empty.
func TestSnapshotReadSpan(t *testing.T) {
	c, s, _ := orderedSnapshot(t, 3000, 7)
	var span Batch
	for _, rows := range []int{1, 64, 1000, 1 << 20} {
		p, err := PlanWindows(s.Collection(), rows)
		if err != nil {
			t.Fatal(err)
		}
		got := NewCollection()
		for k := 0; k < p.Windows(); k++ {
			for i := range p.Nodes() {
				lo, hi := p.Span(k, i)
				s.ReadSpan(p, k, i, &span)
				if span.Len() != hi-lo {
					t.Fatalf("rows %d: window %d node %d read %d rows, span holds %d", rows, k, i, span.Len(), hi-lo)
				}
				for j := 0; j < span.Len(); j++ {
					got.Add(span.At(j))
				}
			}
		}
		checkSameCollection(t, c, got)
	}
}

// TestSnapshotReadSpanTruncatedFile: a file cut short under an open snapshot
// makes the span reads past the cut panic, naming the file and the offset;
// no read returns short or stale rows. The collection carries no Info, whose
// strings alias the mapped blob past the cut.
func TestSnapshotReadSpanTruncatedFile(t *testing.T) {
	c, s, path := orderedSnapshot(t, 3000, 0)
	p, err := PlanWindows(s.Collection(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(s.file.Size()/2)); err != nil {
		t.Fatal(err)
	}
	var span Batch
	failed := 0
	for k := 0; k < p.Windows(); k++ {
		for i, n := range p.Nodes() {
			lo, hi := p.Span(k, i)
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				s.ReadSpan(p, k, i, &span)
				return ""
			}()
			if msg != "" {
				if !strings.Contains(msg, path) || !strings.Contains(msg, "offset") {
					t.Fatalf("window %d node %d: panic %q names no file and offset", k, i, msg)
				}
				failed++
				continue
			}
			for j := 0; j < span.Len(); j++ {
				if got, want := span.At(j), c.Logs[n].At(lo+j); got != want {
					t.Fatalf("window %d node %d row %d: read %+v, want %+v", k, i, lo+j, got, want)
				}
			}
			if span.Len() != hi-lo {
				t.Fatalf("window %d node %d: read %d rows, span holds %d", k, i, span.Len(), hi-lo)
			}
		}
	}
	if readsThroughFile && failed == 0 {
		t.Fatal("no span read failed past the cut")
	}
	if !readsThroughFile && failed > 0 {
		t.Fatalf("%d span reads failed on an in-memory snapshot", failed)
	}
}
