package event

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
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
		rowSize = 5*4 + 8 + 1
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
				for col, cp := range map[string]int{"node": cap(b.node), "sender": cap(b.sender), "receiver": cap(b.receiver),
					"origin": cap(b.origin), "seq": cap(b.seq), "time": cap(b.time), "typ": cap(b.typ)} {
					if cp != n0 {
						t.Errorf("node %v: %s column of capacity %d for %d rows", n, col, cp, n0)
					}
				}
			}
		})
	}
}
