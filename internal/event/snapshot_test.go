package event

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/event/snapfile"
)

// snapTestCollection builds a collection with several nodes, uneven log
// sizes and a sprinkling of Info strings.
func snapTestCollection(seed int64, n int) *Collection {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollection()
	for i := 0; i < n; i++ {
		e := randomEvent(rng)
		if i%13 == 0 {
			e.Info = "attempt=3 rssi=-70"
		}
		c.Add(e)
	}
	return c
}

// snapImage serializes c into an in-memory snapshot image.
func snapImage(t testing.TB, c *Collection) []byte {
	if t != nil {
		t.Helper()
	}
	var buf bytes.Buffer
	w := snapfile.NewWriter(&buf)
	if err := AppendCollectionSections(w, 0, c); err != nil {
		panic(err)
	}
	if err := w.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkSameCollection asserts got holds exactly the events of want, per
// node, in order.
func checkSameCollection(t *testing.T, want, got *Collection) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatalf("nodes %v vs %v", got.Nodes(), want.Nodes())
	}
	for _, n := range want.Nodes() {
		if !reflect.DeepEqual(want.Logs[n].Events(), got.Logs[n].Events()) {
			t.Fatalf("node %v logs differ", n)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	c := snapTestCollection(7, 2000)
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := WriteSnapshot(path, c); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	s, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	checkSameCollection(t, c, s.Collection())
	if s.Rows() != c.TotalEvents() {
		t.Fatalf("Rows = %d, want %d", s.Rows(), c.TotalEvents())
	}
	for _, l := range s.Collection().Logs {
		if !l.Batch().ReadOnly() {
			t.Fatal("mapped batch should be read-only")
		}
	}
}

// withNodeColumn rewrites snapshot image img in the layout written before a
// batch kept its node once: the collection at base 0 also carries a node
// column as section 1, right after its meta. col makes the column's bytes
// from the rows' nodes; the real layout's is one little-endian u32 a row.
func withNodeColumn(t testing.TB, img []byte, col func(nodes []NodeID) []byte) []byte {
	t.Helper()
	f, err := snapfile.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	spans, _ := f.Section(secSpanIndex)
	var nodes []NodeID
	for e := spans; len(e) > 0; e = e[spanEntrySize:] {
		start, end := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		for range end - start {
			nodes = append(nodes, NodeID(binary.LittleEndian.Uint32(e)))
		}
	}
	var buf bytes.Buffer
	w := snapfile.NewWriter(&buf)
	for _, sec := range f.Sections() {
		data, _ := f.Section(sec.ID)
		w.Append(sec.ID, data)
		if sec.ID == secMeta {
			w.Append(secNode, col(nodes))
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nodeColumn is the node column as it was written: one u32 a row.
func nodeColumn(nodes []NodeID) []byte { return rawBytes(nodes) }

// TestSnapshotNodeColumnRetired: the writer puts no node column (section
// base+1) in a snapshot or in a collection at another base, and the reader
// opens a file in the older layout, which has one, to the same collection,
// whatever the column holds.
func TestSnapshotNodeColumnRetired(t *testing.T) {
	c := snapTestCollection(31, 900)
	img := spreadImage(t, c, nil)
	f, err := snapfile.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Section(secNode); ok {
		t.Error("a new snapshot has a node column")
	}
	var buf bytes.Buffer
	w := snapfile.NewWriter(&buf)
	if err := AppendCollectionSections(w, SectionStride, c); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if f, err := snapfile.Parse(buf.Bytes()); err != nil {
		t.Fatal(err)
	} else if _, ok := f.Section(SectionStride + secNode); ok {
		t.Error("a collection written at base SectionStride has a node column")
	}

	for name, col := range map[string]func([]NodeID) []byte{
		"node-column": nodeColumn,
		"foreign-nodes": func(nodes []NodeID) []byte {
			return nodeColumn(make([]NodeID, len(nodes))) // every row node 0
		},
		"short-column": func([]NodeID) []byte { return []byte{1, 2, 3} },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := parseSnapshotData(withNodeColumn(t, img, col))
			if err != nil {
				t.Fatal(err)
			}
			checkSameCollection(t, c, s.Collection())
			if spread, ok := s.RecordedSpread(); !ok || spread != MaxPacketSpread(c) {
				t.Errorf("recorded spread %d (%v), want %d", spread, ok, MaxPacketSpread(c))
			}
		})
	}
}

// TestSnapshotFailedWriteKeepsPrevious: a snapshot write that fails — here
// its final rename, onto a non-empty directory — leaves the previous
// snapshot byte-identical and no temp file behind (snapfile.WriteFile pins
// the same after a failure mid-write).
func TestSnapshotFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path, blocked := filepath.Join(dir, "c.snap"), filepath.Join(dir, "blocked")
	if err := WriteSnapshot(path, snapTestCollection(3, 500)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(blocked, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(blocked, snapTestCollection(4, 500)); err == nil {
		t.Fatal("snapshot onto a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("previous snapshot changed by a failed write (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".refill-") {
			t.Errorf("failed snapshot left temp file %s", e.Name())
		}
	}
}

func TestSnapshotEmptyAndSingleNode(t *testing.T) {
	for _, c := range []*Collection{
		NewCollection(),
		func() *Collection {
			c := NewCollection()
			c.Add(Event{Node: 3, Type: Gen, Sender: 3, Packet: PacketID{Origin: 3, Seq: 1}, Time: 42})
			return c
		}(),
	} {
		s, err := parseSnapshotData(snapImage(t, c))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		checkSameCollection(t, c, s.Collection())
	}
}

func TestSnapshotMisalignedBufferFallsBackToCopy(t *testing.T) {
	c := snapTestCollection(11, 300)
	img := snapImage(t, c)
	// Shift the image one byte so every column lands misaligned: the cast
	// must fall back to copying, not perform unaligned loads or fail.
	buf := make([]byte, len(img)+1)
	copy(buf[1:], img)
	s, err := parseSnapshotData(buf[1 : 1+len(img)])
	if err != nil {
		t.Fatalf("parse misaligned: %v", err)
	}
	checkSameCollection(t, c, s.Collection())
}

func TestSnapshotCollectionIsPartitionable(t *testing.T) {
	c := snapTestCollection(13, 1500)
	s, err := parseSnapshotData(snapImage(t, c))
	if err != nil {
		t.Fatal(err)
	}
	wantViews, wantOps := Partition(c)
	gotViews, gotOps := Partition(s.Collection())
	if !reflect.DeepEqual(wantOps, gotOps) {
		t.Fatal("operational events differ")
	}
	if len(wantViews) != len(gotViews) {
		t.Fatalf("views %d vs %d", len(gotViews), len(wantViews))
	}
	for i := range wantViews {
		if wantViews[i].Packet != gotViews[i].Packet ||
			!reflect.DeepEqual(wantViews[i].Events(), gotViews[i].Events()) {
			t.Fatalf("view %d differs", i)
		}
	}
}

func TestSnapshotBatchMutatorsPanic(t *testing.T) {
	c := snapTestCollection(17, 50)
	s, err := parseSnapshotData(snapImage(t, c))
	if err != nil {
		t.Fatal(err)
	}
	n := s.Collection().Nodes()[0]
	b := s.Collection().Logs[n].Batch()
	mutators := map[string]func(){
		"Append": func() { b.Append(Event{}) },
		"Set":    func() { b.Set(0, Event{}) },
		"Resize": func() { b.Resize(0) },
		"Grow":   func() { b.Grow(1) },
		"Reset":  func() { b.Reset() },
	}
	for name, f := range mutators {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s on a mapped batch did not panic", name)
					return
				}
				if !strings.Contains(r.(string), "read-only") {
					t.Errorf("%s panic = %v", name, r)
				}
			}()
			f()
		}()
	}
	// Clone is the sanctioned escape hatch: deep, writable copy.
	cl := b.Clone()
	if cl.ReadOnly() {
		t.Fatal("clone of a mapped batch should be writable")
	}
	cl.Append(Event{Node: n, Type: Gen, Sender: n, Packet: PacketID{Origin: n, Seq: 9}})
	if cl.Len() != b.Len()+1 {
		t.Fatal("clone append did not extend the copy")
	}
}

// corruptSection patches the section's bytes in place (data CRCs are lazy,
// so Parse + CollectionFromSections still run) and asserts the assembly
// fails with want.
func corruptSection(t *testing.T, img []byte, id uint32, want string, f func([]byte)) {
	t.Helper()
	c := append([]byte(nil), img...)
	file, err := snapfile.Parse(c)
	if err != nil {
		t.Fatal(err)
	}
	sec, ok := file.Section(id)
	if !ok {
		t.Fatalf("section %d missing", id)
	}
	f(sec)
	_, err = parseSnapshotData(c)
	if err == nil {
		t.Fatalf("corruption of section %d accepted (want %q)", id, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want substring %q", err, want)
	}
}

func TestSnapshotRejectsBadSections(t *testing.T) {
	img := snapImage(t, snapTestCollection(23, 400))

	t.Run("meta-size", func(t *testing.T) {
		// Rewrite the image with a truncated meta section.
		var buf bytes.Buffer
		w := snapfile.NewWriter(&buf)
		w.Append(secMeta, []byte{1, 2, 3})
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if _, err := parseSnapshotData(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "meta") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("missing-column", func(t *testing.T) {
		var buf bytes.Buffer
		w := snapfile.NewWriter(&buf)
		meta := make([]byte, metaSize)
		w.Append(secMeta, meta)
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if _, err := parseSnapshotData(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "missing section") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("lying-rows", func(t *testing.T) {
		corruptSection(t, img, secMeta, "column holds", func(b []byte) {
			b[0]++ // rows+1: every column length now mismatches
		})
	})
	t.Run("huge-rows", func(t *testing.T) {
		// An absurd row count must die on the plausibility check before
		// any column math, with no allocation sized from it.
		corruptSection(t, img, secMeta, "implausible", func(b []byte) {
			for i := 0; i < 8; i++ {
				b[i] = 0xFF
			}
		})
	})
	t.Run("span-misordered", func(t *testing.T) {
		corruptSection(t, img, secSpanIndex, "mis-ordered", func(b []byte) {
			// Second entry claims the first entry's node: no longer
			// strictly ascending.
			copy(b[spanEntrySize:spanEntrySize+4], b[0:4])
		})
	})
	t.Run("span-overlap", func(t *testing.T) {
		corruptSection(t, img, secSpanIndex, "not contiguous", func(b []byte) {
			b[8]++ // first span's start is no longer 0
		})
	})
	t.Run("span-short", func(t *testing.T) {
		corruptSection(t, img, secSpanIndex, "span index", func(b []byte) {
			// Shrink the last span: coverage ends short of rows. End is
			// little endian, so decrementing the low byte works (>0).
			b[len(b)-8]--
		})
	})
	t.Run("info-out-of-blob", func(t *testing.T) {
		corruptSection(t, img, secInfoIndex, "blob", func(b []byte) {
			// First entry's length: point past the blob.
			b[8] = 0xFF
			b[9] = 0xFF
			b[10] = 0xFF
		})
	})
	t.Run("info-misordered", func(t *testing.T) {
		corruptSection(t, img, secInfoIndex, "info index", func(b []byte) {
			// Second entry's row = first entry's row: not ascending.
			copy(b[infoEntrySize:infoEntrySize+4], b[0:4])
		})
	})
}

// spreadImage serializes c as WriteSnapshot does, then lets patch rewrite the
// recorded spread's bytes (nil: leave them alone).
func spreadImage(t testing.TB, c *Collection, patch func(spread []byte)) []byte {
	var buf bytes.Buffer
	w := snapfile.NewWriter(&buf)
	if err := appendSnapshot(w, c); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if patch != nil {
		f, err := snapfile.Parse(img)
		if err != nil {
			t.Fatal(err)
		}
		sec, _ := f.Section(secSpread)
		patch(sec)
	}
	return img
}

// TestSnapshotRecordedSpread: the spread WriteSnapshot records reads back
// exactly, and is distrusted — so the caller scans — when the file has none,
// when its bytes fail the section CRC, and when it is negative.
func TestSnapshotRecordedSpread(t *testing.T) {
	c := snapTestCollection(37, 600)
	want := MaxPacketSpread(c)
	if want <= 0 {
		t.Fatalf("degenerate collection: spread %d", want)
	}
	recording := func(spread []byte) []byte { // these bytes as section 11, under a valid CRC
		var buf bytes.Buffer
		w := snapfile.NewWriter(&buf)
		if err := AppendCollectionSections(w, 0, c); err != nil {
			t.Fatal(err)
		}
		w.Append(secSpread, spread)
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	le := binary.LittleEndian
	for _, tc := range []struct {
		name  string
		img   []byte
		trust bool
	}{
		{"recorded", spreadImage(t, c, nil), true},
		{"none", snapImage(t, c), false},
		{"flipped-bit", spreadImage(t, c, func(b []byte) { b[0] ^= 1 }), false},
		{"negative", recording(le.AppendUint64(nil, uint64(1)<<63|uint64(want))), false},
		{"wrong-size", recording(le.AppendUint64(le.AppendUint64(nil, uint64(want)), 0)), false},
	} {
		s, err := parseSnapshotData(tc.img)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, ok := s.RecordedSpread()
		if ok != tc.trust || ok && got != want {
			t.Errorf("%s: RecordedSpread = %d, %v; want %d, %v", tc.name, got, ok, want, tc.trust)
		}
	}
}

func FuzzOpenSnapshot(f *testing.F) {
	f.Add(snapImage(nil, snapTestCollection(29, 120)))
	f.Add(snapImage(nil, NewCollection()))
	f.Add([]byte("RFSNAP\r\n"))
	f.Add(spreadImage(f, snapTestCollection(41, 120), nil))
	f.Add(withNodeColumn(f, snapImage(f, snapTestCollection(43, 120)), nodeColumn))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseSnapshotData(data)
		if err != nil {
			return
		}
		if spread, ok := s.RecordedSpread(); ok && spread < 0 {
			t.Fatalf("trusted a negative spread %d", spread)
		}
		// Whatever parses must be internally consistent and safely
		// walkable without panics.
		c := s.Collection()
		total := 0
		for _, n := range c.Nodes() {
			l := c.Logs[n]
			for i := 0; i < l.Len(); i++ {
				_ = l.At(i)
			}
			total += l.Len()
		}
		if total != s.Rows() {
			t.Fatalf("spans cover %d rows, meta says %d", total, s.Rows())
		}
	})
}

func TestBinaryLyingCountDoesNotOverAllocate(t *testing.T) {
	// A header declaring 2^32-1 records followed by nothing: the reader
	// must fail on the missing records without pre-allocating columns for
	// the declared count (which would be ~80GB).
	var hdr bytes.Buffer
	hdr.WriteString(binaryMagic)
	hdr.WriteByte(binaryVersion)
	hdr.Write([]byte{1, 0, 0, 0})             // node 1
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // count u32 max
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadCollectionBinary(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated lying-count input accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("lying count allocated %d bytes", grew)
	}
}
