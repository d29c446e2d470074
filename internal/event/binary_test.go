package event

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCollection()
	for i := 0; i < 1000; i++ {
		e := randomEvent(rng)
		if i%7 == 0 {
			e.Info = "attempt=3 rssi=-70"
		}
		c.Add(e)
	}
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollectionBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents() != c.TotalEvents() {
		t.Fatalf("count %d vs %d", got.TotalEvents(), c.TotalEvents())
	}
	for _, n := range c.Nodes() {
		if !reflect.DeepEqual(c.Logs[n].Events(), got.Logs[n].Events()) {
			t.Fatalf("node %v logs differ", n)
		}
	}
}

func TestBinaryEmptyCollection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, NewCollection()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollectionBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents() != 0 {
		t.Error("empty round trip grew events")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []string{
		"",             // empty
		"XXXX\x01",     // bad magic
		"RFBL\x09",     // bad version
		"RFBL\x01\x01", // truncated node header
	}
	for _, s := range cases {
		if _, err := ReadCollectionBinary(strings.NewReader(s)); err == nil {
			t.Errorf("garbage %q accepted", s)
		}
	}
}

func TestBinaryRejectsTruncatedRecord(t *testing.T) {
	c := NewCollection()
	c.Add(Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2,
		Packet: PacketID{Origin: 1, Seq: 1}, Time: 42})
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) - 8, 14, 6} {
		if _, err := ReadCollectionBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryRejectsInvalidType(t *testing.T) {
	c := NewCollection()
	c.Add(Event{Node: 1, Type: Trans, Sender: 1, Receiver: 2,
		Packet: PacketID{Origin: 1, Seq: 1}})
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5+8] = 0xEE // corrupt the type byte of the first record
	if _, err := ReadCollectionBinary(bytes.NewReader(raw)); err == nil {
		t.Error("invalid type accepted")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewCollection()
	for i := 0; i < 5000; i++ {
		c.Add(randomEvent(rng))
	}
	var bin, txt bytes.Buffer
	if err := WriteCollectionBinary(&bin, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteCollection(&txt, c); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Errorf("binary (%d) not smaller than text (%d)", bin.Len(), txt.Len())
	}
}

// TestBinaryHostileCountAllocatesByInput pins what a lying node header can
// cost: a count of 4,294,967,295 over a one-record body fails as a
// truncated record, having allocated no more than the reader's buffer and
// the rows the input could hold when the reader reports its size (a file),
// and no more than the buffer and the fixed 1<<16-row cap when it cannot (a
// plain io.Reader).
func TestBinaryHostileCountAllocatesByInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, collectionOf(Event{Node: 4, Type: Recv, Sender: 1, Receiver: 4, Packet: PacketID{Origin: 1, Seq: 2}, Time: 3})); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[5+4:], math.MaxUint32) // the node's count
	path := filepath.Join(t.TempDir(), "hostile.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	const (
		bufSize = 1 << 16 // ReadCollectionBinary's bufio.Reader
		rowSize = 4*4 + 8 + 1
		slack   = 16 << 10
	)
	for _, tc := range []struct {
		name  string
		open  func() io.Reader
		limit uint64
	}{
		{"file", func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}, bufSize + rowSize*uint64(len(data)) + slack},
		{"plain reader", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} }, bufSize + rowSize<<16 + slack},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.open()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadCollectionBinary(r)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated record") {
				t.Fatalf("err = %v, want a truncated record", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tc.limit {
				t.Errorf("decoding %d bytes allocated %d bytes, want at most %d", len(data), alloc, tc.limit)
			}
		})
	}
}

// TestBinaryDecodeSizesLogsOnce checks that a reader which reports its size
// decodes each node log into columns grown once, to the node's count, also
// past the 1<<16 rows a reader of unknown size is granted up front: no
// column of such a log has room to spare.
func TestBinaryDecodeSizesLogsOnce(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 1<<16+1000; i++ {
		c.Add(Event{Node: 3, Type: Recv, Sender: 1, Receiver: 3, Packet: PacketID{Origin: 1, Seq: uint32(i)}, Time: int64(i)})
		if i%9 == 0 {
			c.Add(Event{Node: 5, Type: Gen, Sender: 5, Receiver: 5, Packet: PacketID{Origin: 5, Seq: uint32(i)}, Time: int64(i), Info: "x"})
		}
	}
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "logs.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(buf.Bytes()) }},
		{"file", func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadCollectionBinary(tc.open())
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range c.Nodes() {
				b, n0 := got.Logs[n].Batch(), c.Logs[n].Len()
				if b.Len() != n0 {
					t.Fatalf("node %v: %d rows, want %d", n, b.Len(), n0)
				}
				for col, cp := range map[string]int{"sender": cap(b.sender), "receiver": cap(b.receiver),
					"origin": cap(b.origin), "seq": cap(b.seq), "time": cap(b.time), "typ": cap(b.typ)} {
					if cp != n0 {
						t.Errorf("node %v: %s column of capacity %d for %d rows", n, col, cp, n0)
					}
				}
			}
		})
	}
}

// binaryOf encodes c in the binary log format.
func binaryOf(tb testing.TB, c *Collection) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteCollectionBinary(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// plainRows returns n info-free rows logged at node: the records the chunk
// decoder writes straight into the columns.
func plainRows(node NodeID, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Node: node, Type: Recv, Sender: node + 1, Receiver: node, Packet: PacketID{Origin: node + 1, Seq: uint32(i)}, Time: int64(i) << 20}
	}
	return evs
}

// binarySeeds are FuzzReadCollectionBinary's seeds beside its corpus: each
// way a record can stop a chunk of whole, info-free records.
func binarySeeds(tb testing.TB) [][]byte {
	// 2,500 rows put a record across the 64 KiB buffer's end, and the Info
	// record after row 2,420 does too, its fixed part and its Info split.
	straddle := collectionOf(plainRows(3, 2500)...)
	withInfo := plainRows(5, 2500)
	withInfo[2420].Info = strings.Repeat("i", 300)
	// Info rows between plain rows, one with the longest Info there is.
	mixed := plainRows(7, 40)
	mixed[0].Info, mixed[3].Info, mixed[17].Info = "first", "x", strings.Repeat("w", math.MaxUint16)
	mixed[39].Info = "last"
	valid := binaryOf(tb, snapTestCollection(31, 60))
	badType := binaryOf(tb, collectionOf(plainRows(9, 100)...))
	badType[5+8+50*recordFixedSize] = 0xEE // the type byte of row 50
	lyingHigh := bytes.Clone(badType)
	lyingHigh[5+8+50*recordFixedSize] = byte(Recv)
	binary.LittleEndian.PutUint32(lyingHigh[5+4:], 101) // one row more than follows
	lyingLow := bytes.Clone(lyingHigh)
	binary.LittleEndian.PutUint32(lyingLow[5+4:], 60) // the rest reads as node headers
	info := binaryOf(tb, collectionOf(mixed...))
	return [][]byte{
		valid,
		[]byte("RFBL\x01"),
		{},
		binaryOf(tb, straddle),
		binaryOf(tb, collectionOf(append(withInfo, plainRows(6, 10)...)...)),
		info,
		badType,
		valid[:len(valid)-recordFixedSize/2], // a truncated record
		info[:5+8+17*recordFixedSize+5+1+recordFixedSize+1000], // truncated Info: the 65,535-byte one
		lyingHigh,
		lyingLow,
	}
}

// FuzzReadCollectionBinary holds ReadCollectionBinary to the record-at-a-time
// oracle on arbitrary input, through a reader that reports its size, one
// that does not, and one that delivers a byte per read: the collections
// must match column by column, Info included, and the errors word for word.
func FuzzReadCollectionBinary(f *testing.F) {
	for _, data := range binarySeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Contract: structural errors come back as errors — never a panic,
		// never an allocation sized by a lying header. Semantic validity
		// (protocol rules per event) is Collection.Validate's job, a
		// separate step the reader deliberately does not perform.
		for _, r := range []struct {
			name string
			open func() io.Reader
		}{
			{"sized", func() io.Reader { return bytes.NewReader(data) }},
			{"unsized", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} }},
			{"byte-at-a-time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		} {
			got, err := ReadCollectionBinary(r.open())
			want, wantErr := referenceReadCollectionBinary(r.open())
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, oracle %v", r.name, err, wantErr)
			}
			if err != nil {
				if got != nil {
					t.Fatalf("%s: a collection beside error %v", r.name, err)
				}
				continue
			}
			sameCollection(t, r.name, got, want)
		}
	})
}

// sameCollection fails unless got and want hold the same nodes and, per
// node, equal columns and Info.
func sameCollection(t *testing.T, name string, got, want *Collection) {
	t.Helper()
	if !slices.Equal(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: nodes %v, oracle %v", name, got.Nodes(), want.Nodes())
	}
	for _, n := range want.Nodes() {
		g, w := got.Logs[n], want.Logs[n]
		gb, wb := g.Batch(), w.Batch()
		if g.Node != w.Node || gb.Len() != wb.Len() {
			t.Fatalf("%s: node %v: log of node %v, %d rows; oracle %v, %d rows", name, n, g.Node, gb.Len(), w.Node, wb.Len())
		}
		if (wb.Len() > 0 && gb.node != wb.node) || !slices.Equal(gb.typ, wb.typ) ||
			!slices.Equal(gb.sender, wb.sender) || !slices.Equal(gb.receiver, wb.receiver) ||
			!slices.Equal(gb.origin, wb.origin) || !slices.Equal(gb.seq, wb.seq) || !slices.Equal(gb.time, wb.time) {
			t.Fatalf("%s: node %v: columns differ from the oracle's", name, n)
		}
		if !maps.Equal(gb.info, wb.info) {
			t.Fatalf("%s: node %v: Info %v, oracle %v", name, n, gb.info, wb.info)
		}
	}
}

// TestBinaryDecodeGrowsByDoubling decodes one node of 1<<18 rows through a
// reader that reports no size, so the header's count is capped at 1<<16
// rows and the columns grow as the rows arrive. Doubling from wherever the
// last buffer left them, the columns end under twice the rows and every
// earlier size sums to less again, so the decode allocates under four times
// the rows' column bytes; growing by each buffer's rows, it would copy the
// columns once per 64 KiB read, some 50 times as much.
func TestBinaryDecodeGrowsByDoubling(t *testing.T) {
	const (
		rows    = 1 << 18
		rowSize = 4*4 + 8 + 1
	)
	data := binaryOf(t, collectionOf(plainRows(3, rows)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadCollectionBinary(struct{ io.Reader }{bytes.NewReader(data)})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Logs[3].Len(); n != rows {
		t.Fatalf("decoded %d rows, want %d", n, rows)
	}
	columns := uint64(rows * rowSize)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*columns {
		t.Errorf("decoding %d rows of %d column bytes allocated %d bytes, want at most %d", rows, columns, alloc, 4*columns)
	}
}
