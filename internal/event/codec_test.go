package event

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceFormat is the pre-AppendEvent text rendering, kept as the oracle:
// field String() methods joined by spaces, exactly as the original
// strings.Builder writer produced.
func referenceFormat(e Event) string {
	var b strings.Builder
	b.WriteString(e.Node.String())
	b.WriteByte(' ')
	b.WriteString(e.Type.String())
	b.WriteByte(' ')
	b.WriteString(e.Sender.String())
	b.WriteByte(' ')
	b.WriteString(e.Receiver.String())
	b.WriteByte(' ')
	b.WriteString(e.Packet.String())
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(e.Time, 10))
	if e.Info != "" {
		b.WriteByte(' ')
		b.WriteString(e.Info)
	}
	return b.String()
}

func codecEvents() []Event {
	return []Event{
		{Node: 2, Type: Recv, Sender: 1, Receiver: 2, Packet: PacketID{Origin: 1, Seq: 17}, Time: 120034},
		{Node: 1, Type: Trans, Sender: 1, Receiver: 2, Packet: PacketID{Origin: 1, Seq: 17}, Time: 119800, Info: "attempt=3"},
		{Node: Server, Type: ServerDown, Time: -42},
		{Node: Server, Type: ServerRecv, Sender: 9, Receiver: Server, Packet: PacketID{Origin: 4, Seq: 4294967295}, Time: 1 << 40},
		{Node: 1, Type: Gen, Sender: 1, Packet: PacketID{Origin: 1, Seq: 0}, Time: 0},
		{Node: 7, Type: Done, Sender: 7, Packet: PacketID{Origin: 7, Seq: 3}, Time: 5, Info: "round 2 of 3"},
	}
}

// TestAppendEventMatchesReference pins AppendEvent (and FormatEvent on top of
// it) byte for byte to the String()-based rendering it replaced, including
// pseudo-node names, negative and huge times, max sequence numbers and
// multi-word Info payloads.
func TestAppendEventMatchesReference(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, e := range codecEvents() {
		want := referenceFormat(e)
		buf = AppendEvent(buf[:0], e)
		if string(buf) != want {
			t.Errorf("AppendEvent = %q, want %q", buf, want)
		}
		if got := FormatEvent(e); got != want {
			t.Errorf("FormatEvent = %q, want %q", got, want)
		}
	}
}

// TestAppendEventRoundTrips checks ParseEvent inverts the append writer.
func TestAppendEventRoundTrips(t *testing.T) {
	for _, e := range codecEvents() {
		if !e.Type.PacketScoped() {
			continue // operational events round-trip their zero PacketID as "-:0"
		}
		got, err := ParseEvent(string(AppendEvent(nil, e)))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != e {
			t.Errorf("round trip = %+v, want %+v", got, e)
		}
	}
}

// TestWriteCollectionHeaderUnchanged pins the per-node header line the
// buffer-reusing writer emits to the old Fprintf format.
func TestWriteCollectionHeaderUnchanged(t *testing.T) {
	c := NewCollection()
	for _, e := range codecEvents() {
		c.Add(e)
	}
	var got bytes.Buffer
	if err := WriteCollection(&got, c); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, n := range c.Nodes() {
		fmt.Fprintf(&want, "# node %v (%d events)\n", n, c.Logs[n].Len())
		for i := 0; i < c.Logs[n].Len(); i++ {
			fmt.Fprintf(&want, "%s\n", referenceFormat(c.Logs[n].At(i)))
		}
	}
	if got.String() != want.String() {
		t.Errorf("WriteCollection output changed:\n%q\nwant\n%q", got.String(), want.String())
	}
}

// TestWriteCollectionAllocsPerEvent asserts the write path allocates per
// node, not per event: doubling the event volume must not increase
// allocations measurably.
func TestWriteCollectionAllocsPerEvent(t *testing.T) {
	build := func(events int) *Collection {
		c := NewCollection()
		for i := 0; i < events; i++ {
			c.Add(Event{
				Node: 3, Type: Trans, Sender: 3, Receiver: 4,
				Packet: PacketID{Origin: 3, Seq: uint32(i)}, Time: int64(i),
			})
		}
		return c
	}
	measure := func(c *Collection) float64 {
		var sink bytes.Buffer
		return testing.AllocsPerRun(10, func() {
			sink.Reset()
			if err := WriteCollection(&sink, c); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(build(1000)), measure(build(2000))
	if large > small+8 {
		t.Errorf("allocs grew with event count: %v -> %v for 1000 -> 2000 events", small, large)
	}
}

// referenceParseEvent is the strings.Fields parser ParseEvent's in-place
// decoder replaced, kept verbatim as the oracle — with the string forms of
// ParseNodeID, ParseType and ParsePacketID it called, which are now wrappers
// over the decoder's own field readers: same values, same errors.
func referenceParseEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return Event{}, fmt.Errorf("event: short log line %q", line)
	}
	var e Event
	var err error
	if e.Node, err = referenceParseNodeID(fields[0]); err != nil {
		return Event{}, err
	}
	if e.Type, err = referenceParseType(fields[1]); err != nil {
		return Event{}, err
	}
	if e.Sender, err = referenceParseNodeID(fields[2]); err != nil {
		return Event{}, err
	}
	if e.Receiver, err = referenceParseNodeID(fields[3]); err != nil {
		return Event{}, err
	}
	if fields[4] != "-" {
		if e.Packet, err = referenceParsePacketID(fields[4]); err != nil {
			return Event{}, err
		}
	}
	if e.Time, err = strconv.ParseInt(fields[5], 10, 64); err != nil {
		return Event{}, fmt.Errorf("event: bad time in %q: %v", line, err)
	}
	if len(fields) > 6 {
		e.Info = strings.Join(fields[6:], " ")
	}
	return e, nil
}

func referenceParseNodeID(s string) (NodeID, error) {
	switch s {
	case "-":
		return NoNode, nil
	case "server":
		return Server, nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return NoNode, fmt.Errorf("event: bad node id %q: %v", s, err)
	}
	return NodeID(v), nil
}

func referenceParsePacketID(s string) (PacketID, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return PacketID{}, fmt.Errorf("event: bad packet id %q: missing ':'", s)
	}
	origin, err := referenceParseNodeID(s[:i])
	if err != nil {
		return PacketID{}, err
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 32)
	if err != nil {
		return PacketID{}, fmt.Errorf("event: bad packet seq in %q: %v", s, err)
	}
	return PacketID{Origin: origin, Seq: uint32(seq)}, nil
}

func referenceParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if Type(t) != Invalid && name == s {
			return Type(t), nil
		}
	}
	return Invalid, fmt.Errorf("event: unknown event type %q", s)
}

// referenceReadCollection is the reader that went with it: one string per
// line, trimmed, routed through Collection.Add.
func referenceReadCollection(text string) (*Collection, error) {
	c := NewCollection()
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := referenceParseEvent(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		c.Add(e)
	}
	return c, sc.Err()
}

// sameParse holds one (value, error) pair equal to the oracle's, errors by
// their text.
func sameParse(t *testing.T, input string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: err = %v, reference err = %v", input, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", input, got, want)
	}
}

// FuzzParseEvent holds ParseEvent equal to referenceParseEvent in value and
// in error text. The seeds run in plain `go test`: every field shape the
// format comment, the writer and the strconv accept sets give rise to.
func FuzzParseEvent(f *testing.F) {
	for _, line := range []string{
		"2 recv 1 2 1:17 120034",
		"1 trans 1 2 1:17 119800 attempt=3",
		"server sdown - - - -42",
		"server srecv 9 server 4:4294967295 1099511627776",
		"7 done 7 - 7:3 5 round 2 of 3",
		"7 done 7 - 7:3 5 round\t2  of   3 ",
		"  1 gen 1 - 1:0 0\r",
		"1\u00a0trans\u30001\u00852 1:1 7 a\u00a0b", // NBSP, U+3000, U+0085 split
		"1 trans 1 2 1:1 7 \u2003x\u2028y\u205f",    // and the rest of White_Space
		"1 tr\xffans 1 2 1:1 7",                     // \xff is not white space: one field
		"1\xff trans 1 2 1:1 7",                     //
		"1 trans 1 2 1:1 7 a\xffb \xc2 \xe3\x80 c",  // invalid and cut-short UTF-8 in Info
		"1 trans 1 2 1:1 7 \ufffd",                  // a real U+FFFD
		"1 trans 1 2 1;1 0", "1 trans 1 2 :1 0", "1 trans 1 2 1: 0", "1 trans 1 2 : 0",
		"1 trans 1 2 server:1 0", "server sup - - -:0 0", "1 trans 1 2 1:2:3 0", "1 trans 1 2 -1:2 0",
		"1 trans 1 2 1:1 +5", "1 trans 1 2 1:1 -0", "1 trans 1 2 1:1 -", "1 trans 1 2 1:1 +", "1 trans 1 2 1:1 --1",
		"1 trans 1 2 1:1 1234567890123456789", // 19 digits, fits
		"1 trans 1 2 1:1 9223372036854775807", "1 trans 1 2 1:1 9223372036854775808",
		"1 trans 1 2 1:1 -9223372036854775808", "1 trans 1 2 1:1 -9223372036854775809",
		"1 trans 1 2 1:1 123456789012345678901234567", // 27 digits
		"1 trans 1 2 1:1 0000000000000000000000000042",
		"1 trans 1 2 1:1 1_000", "1 trans 1 2 1:1 0x10", "1 trans 1 2 1:1 1e3", "1 trans 1 2 1:1 notatime",
		"1 trans 1 2 1:4294967296 0", "1 trans 1 2 1:4294967295 0", "1 trans 1 2 1:-1 0", "1 trans 1 2 1:+1 0",
		"4294967296 trans 1 2 1:1 0", "4294967295 trans 1 2 1:1 0", "4294967294 trans 1 2 1:1 0",
		"1 trans 1 2 4294967296:1 0", "1 trans 1 2 18446744073709551616:1 0",
		"0001 trans 01 002 0001:0017 0007", "+1 trans 1 2 1:1 0", "1 trans -2 2 1:1 0", "1 trans 1 1.5 1:1 0",
		"1 trans Server 2 1:1 0", "1 trans servers 2 1:1 0", "1 trans -- 2 1:1 0",
		"1 TRANS 1 2 1:1 0", "1 Trans 1 2 1:1 0", "1 invalid 1 2 1:1 0", "1 type(3) 1 2 1:1 0", "1 tran 1 2 1:1 0", "1 transs 1 2 1:1 0",
		"1 gen 1 - 1:1 0", "1 recv 1 2 1:1 0", "1 overflow 1 2 1:1 0", "1 dup 1 2 1:1 0", "1 ack 1 2 1:1 0",
		"1 timeout 1 2 1:1 0", "1 sup 1 2 1:1 0", "1 enq 1 2 1:1 0", "1 deq 1 2 1:1 0", "1 bcast 1 2 1:1 0", "1 resp 1 2 1:1 0",
		"1 trans 1 2 1:1", "1 trans 1 2 1:1 ", "x bogus y z 1;1", "x bogus y z 1;1 w", "1 bogus y 2 1:1 0", "", " ", "\u00a0", "1 trans",
		"# node 3 (2 events)", "#",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := ParseEvent(line)
		want, wantErr := referenceParseEvent(line)
		sameParse(t, line, got, want, gotErr, wantErr)
		// The exported field parsers run on the decoder's readers: every
		// field of the line, and the line itself, through each of them.
		for _, s := range append(strings.Fields(line), line) {
			n, nErr := ParseNodeID(s)
			wantN, wantNErr := referenceParseNodeID(s)
			sameParse(t, s, n, wantN, nErr, wantNErr)
			p, pErr := ParsePacketID(s)
			wantP, wantPErr := referenceParsePacketID(s)
			sameParse(t, s, p, wantP, pErr, wantPErr)
			typ, tErr := ParseType(s)
			wantT, wantTErr := referenceParseType(s)
			sameParse(t, s, typ, wantT, tErr, wantTErr)
		}
	})
}

// collectionRows flattens a collection for comparison: node order, then log
// order.
func collectionRows(c *Collection) []Event {
	if c == nil {
		return nil
	}
	var rows []Event
	for _, n := range c.Nodes() {
		rows = append(rows, c.Logs[n].Events()...)
	}
	return rows
}

// TestReadCollectionMatchesReference runs the stream-level cases — line ends,
// blank and comment lines, nodes whose lines interleave, the line number in
// an error — against the reader ReadCollection replaced.
func TestReadCollectionMatchesReference(t *testing.T) {
	for name, text := range map[string]string{
		"empty":        "",
		"crlf":         "\r\n\n  \t\r\n# node 2 (1 events)\r\n2 recv 1 2 1:17 120034\r\n\r\n  # indented comment\r\n1 trans 1 2 1:17 119800 attempt=3 \r\n",
		"no final eol": "# c\n2 recv 1 2 1:17 120034",
		"nbsp blank":   "\u00a0\n\u3000# comment after wide space\n\u00a02 recv 1 2 1:17 1\u00a0\n",
		"interleaved":  "3 trans 3 4 3:1 1\n3 trans 3 4 3:2 2 a\n4 recv 3 4 3:1 3\n3 trans 3 4 3:3 4\nserver srecv 4 server 3:1 5\n4 recv 3 4 3:2 6 b  c\n3 trans 3 4 3:4 7\n",
		"bad line 3":   "# c\n2 recv 1 2 1:17 1\n 2 recv 1 2 1:17 x \n2 recv 1 2 1:17 2\n",
		"short line 1": "2 recv 1 2\r\n",
		"hash field":   "2 recv 1 2 1:17 1 #not a comment\n",
	} {
		got, gotErr := ReadCollection(strings.NewReader(text))
		want, wantErr := referenceReadCollection(text)
		t.Run(name, func(t *testing.T) {
			sameParse(t, text, collectionRows(got), collectionRows(want), gotErr, wantErr)
		})
	}
	// The remembered *Log must follow the node on the line, not the run.
	c, err := ReadCollection(strings.NewReader("3 trans 3 4 3:1 1\n4 recv 3 4 3:1 2\n3 trans 3 4 3:2 3\n4 recv 3 4 3:2 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[NodeID][]int64{3: {1, 3}, 4: {2, 4}} {
		var times []int64
		for _, e := range c.Logs[n].Events() {
			if e.Node != n {
				t.Errorf("node %v's log holds a row of node %v", n, e.Node)
			}
			times = append(times, e.Time)
		}
		if !reflect.DeepEqual(times, want) {
			t.Errorf("node %v: times %v, want %v", n, times, want)
		}
	}
}

// TestReadCollectionAllocs asserts the read path allocates per column
// doubling, not per line: ten times the lines may cost a few more doublings
// of the six columns and nothing that follows the row count.
func TestReadCollectionAllocs(t *testing.T) {
	measure := func(events int) float64 {
		c := NewCollection()
		for i := 0; i < events; i++ {
			c.Add(Event{
				Node: 3, Type: Trans, Sender: 3, Receiver: 4,
				Packet: PacketID{Origin: 3, Seq: uint32(i)}, Time: int64(i),
			})
		}
		var text bytes.Buffer
		if err := WriteCollection(&text, c); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			got, err := ReadCollection(bytes.NewReader(text.Bytes()))
			if err != nil || got.TotalEvents() != events {
				t.Fatalf("read back %v events, err %v", got.TotalEvents(), err)
			}
		})
	}
	small, large := measure(2000), measure(20000)
	if large > small+40 {
		t.Errorf("allocs grew with line count: %v -> %v for 2000 -> 20000 lines", small, large)
	}
}

// TestWriteCollectionRefusesNewlineInfo: an Info holding '\n' would be read
// back as a second, forged event line, so the text writer must refuse it —
// as the binary writer refuses an Info it cannot carry.
func TestWriteCollectionRefusesNewlineInfo(t *testing.T) {
	c := NewCollection()
	c.Add(Event{Node: 3, Type: Trans, Sender: 3, Receiver: 4, Packet: PacketID{Origin: 3, Seq: 1}, Time: 5})
	c.Add(Event{Node: 3, Type: Trans, Sender: 3, Receiver: 4, Packet: PacketID{Origin: 3, Seq: 1}, Time: 6, Info: "x\n4 recv 3 4 3:1 6"})
	var out bytes.Buffer
	err := WriteCollection(&out, c)
	if err == nil {
		got, _ := ReadCollection(bytes.NewReader(out.Bytes()))
		t.Fatalf("WriteCollection wrote an Info with a newline; it reads back as %d events on nodes %v", got.TotalEvents(), got.Nodes())
	}
	if msg := err.Error(); !strings.Contains(msg, "node 3") || !strings.Contains(msg, "row 1") {
		t.Errorf("error %q does not name node 3, row 1", msg)
	}
}

// TestReadCollectionLongLineNumber: a line over the scanner's 1 MiB limit is
// reported with its line number and still matches bufio.ErrTooLong.
func TestReadCollectionLongLineNumber(t *testing.T) {
	text := "2 recv 1 2 1:17 120034\n2 recv 1 2 1:17 120035 " + strings.Repeat("x", 2<<20) + "\n"
	_, err := ReadCollection(strings.NewReader(text))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Errorf("err = %q, want a \"line 2: \" prefix", err)
	}
}

// textSeeds are FuzzReadCollection's seed inputs: the writer's output with
// and without its headers, headers that lie, every row shape the plain
// form turns away mixed with plain rows, and the plain form's length edges.
func textSeeds(f *testing.F) []string {
	c := NewCollection()
	for _, e := range codecEvents() {
		c.Add(e)
	}
	for i := range 40 {
		c.Add(Event{Node: NodeID(3 + i%3), Type: Trans, Sender: NodeID(3 + i%3), Receiver: 1, Packet: PacketID{Origin: 3, Seq: uint32(i)}, Time: int64(i) << 20})
	}
	var written bytes.Buffer
	if err := WriteCollection(&written, c); err != nil {
		f.Fatal(err)
	}
	var headless strings.Builder
	for _, line := range strings.SplitAfter(written.String(), "\n") {
		if !strings.HasPrefix(line, "#") {
			headless.WriteString(line)
		}
	}
	return []string{
		written.String(),
		headless.String(),
		// Headers that lie: too high, too low, for a node with no rows,
		// repeated, naming another node than the rows after them, and
		// malformed.
		"# node 2 (1000000 events)\n2 recv 1 2 1:17 120034\n2 recv 1 2 1:18 120035\n",
		"# node 2 (0 events)\n2 recv 1 2 1:17 120034\n2 recv 1 2 1:18 120035\n# node 3 (1 events)\n3 gen 3 - 3:1 7\n3 trans 3 1 3:1 8\n",
		"# node 9 (5 events)\n# node 2 (1 events)\n2 recv 1 2 1:17 120034\n# node 7 (3 events)\n",
		"# node 2 (1 events)\n2 recv 1 2 1:17 1\n# node 2 (100 events)\n2 recv 1 2 1:17 2\n# node 3 (2 events)\n3 recv 1 3 1:17 3\n2 recv 1 2 1:17 4\n",
		"# node 4 (9 events)\n3 recv 1 3 1:17 3\n4 recv 1 4 1:17 3\n",
		"# node 3 (9223372036854775807 events)\n3 recv 1 3 1:17 3\n# node 4 (99999999999999999999 events)\n4 recv 1 4 1:17 3\n",
		"# node server (2 events)\nserver sdown - - -:0 5\nserver srecv 9 server 4:1 6\n# node x (1 events)\n# node 5 (1 event)\n5 gen 5 - 5:1 7\n",
		// Server, unknown and Info rows among plain ones.
		"server sdown - - -:0 -42\n1 trans 1 2 1:17 119800 attempt=3\n1 trans 1 2 1:18 119801\n1 trans 1 - - 119802\n- recv - 1 -:0 0\n7 done 7 - 7:3 5 round  2\n7 done 7 - 7:4 6\n",
		// CRLF, and NBSP before, inside and after the fields.
		"2 recv 1 2 1:17 120034\r\n2 recv 1 2 1:18 120035\r\n\r\n",
		"\u00a02 recv 1 2 1:17 1\n2\u00a0recv 1 2 1:17 2\n2 recv 1 2 1:17 3\u00a0\n2 recv 1 2 1:17 4\n",
		// Ten- and eleven-digit node ids; nineteen- and twenty-digit times.
		"4294967295 recv 1 2 1:17 0\n4294967296 recv 1 2 1:17 0\n",
		"1 recv 4294967295 0000000001 4294967295:4294967295 9223372036854775807\n",
		"1 recv 1 2 1:4294967296 0\n1 recv 1 2 00000000001:1 0\n",
		"1 recv 1 2 1:17 9223372036854775807\n1 recv 1 2 1:17 9223372036854775808\n",
		"1 recv 1 2 1:17 9999999999999999999\n",
		"1 recv 1 2 1:17 00000000000000000001\n1 recv 1 2 1:17 +1\n",
		// Near misses of the plain form.
		"1 recv 1 2 1:17 1 \n1  recv 1 2 1:17 2\n1 recv\t1 2 1:17 3\n 1 recv 1 2 1:17 4\n1 recv 1 2 1:17: 5\n",
		"1 recv 1 2 1:17\n",
		"1 recv 1 2 1:17 1\n1 recv 1 2 1;17 2\n",
		"1 receive 1 2 1:17 1\n1 recv 1 2 1:17 1\n",
		"s recv 1 2 1:17 1\n",
		"serve recv 1 2 1:17 1\n",
		"1 recv serverx 2 1:17 1\n",
		"serves recv 1 2 1:17 1\n",
		"1 recv 1 servex 1:17 1\n",
	}
}

// FuzzReadCollection holds ReadCollection to referenceReadCollection on
// whole streams: the same rows node by node, the same error text with the
// same line number, and the same set of nodes with a log — a header never
// creates one. Each input is read through a sized reader, where headers
// size the logs, and an unsized one, where they do not.
func FuzzReadCollection(f *testing.F) {
	for _, text := range textSeeds(f) {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want, wantErr := referenceReadCollection(text)
		for _, r := range []struct {
			name string
			r    io.Reader
		}{
			{"sized", strings.NewReader(text)},
			{"unsized", struct{ io.Reader }{strings.NewReader(text)}},
		} {
			got, err := ReadCollection(r.r)
			if errors.Is(wantErr, bufio.ErrTooLong) {
				// The oracle returns the scanner's error bare.
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("%s: err = %v, want bufio.ErrTooLong", r.name, err)
				}
				continue
			}
			sameParse(t, r.name+" "+text, collectionRows(got), collectionRows(want), err, wantErr)
			if err == nil && !slices.Equal(got.Nodes(), want.Nodes()) {
				t.Fatalf("%s: nodes %v, oracle %v", r.name, got.Nodes(), want.Nodes())
			}
		}
	})
}

// TestTextHeaderCountAllocatesByInput pins what lying headers can cost: a
// few-KB input whose every header claims 1<<30 events. Through a reader
// that reports its size, all hints together may reserve no more rows than
// the input can hold, so the headers add at most a constant times its
// size to what the same input costs unsized, where they are not read. The
// leading comment makes the input hold more rows than the 256 an unhinted
// log starts with, so a budget that every header could draw on in full
// would show.
func TestTextHeaderCountAllocatesByInput(t *testing.T) {
	var text strings.Builder
	text.WriteString("# " + strings.Repeat("x", 8<<10) + "\n")
	for n := 1; n <= 64; n++ {
		fmt.Fprintf(&text, "# node %d (%d events)\n%d gen %d - %d:1 5\n", n, 1<<30, n, n, n)
	}
	data := []byte(text.String())
	path := filepath.Join(t.TempDir(), "hostile.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(r io.Reader) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ReadCollection(r)
		runtime.ReadMemStats(&after)
		if err != nil || c.TotalEvents() != 64 {
			t.Fatalf("read %v events, err %v", c.TotalEvents(), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const (
		rowSize = 4*4 + 8 + 1
		slack   = 16 << 10
	)
	unsized := allocated(struct{ io.Reader }{bytes.NewReader(data)})
	limit := unsized + rowSize*uint64(len(data))/uint64(len(shortestLine)) + slack
	for _, tc := range []struct {
		name string
		open func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(data) }},
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
			if alloc := allocated(tc.open()); alloc > limit {
				t.Errorf("decoding %d bytes allocated %d bytes, want at most %d (%d unsized)", len(data), alloc, limit, unsized)
			}
		})
	}
}

// TestTextDecodeSizesLogsOnce: through a reader that reports its size, the
// writer's headers size each node log exactly, so no column is regrown and
// none holds spare rows.
func TestTextDecodeSizesLogsOnce(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 5000; i++ {
		c.Add(Event{Node: 3, Type: Recv, Sender: 1, Receiver: 3, Packet: PacketID{Origin: 1, Seq: uint32(i)}, Time: int64(i)})
		if i%9 == 0 {
			c.Add(Event{Node: 5, Type: Gen, Sender: 5, Packet: PacketID{Origin: 5, Seq: uint32(i)}, Time: int64(i), Info: "x"})
		}
	}
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "logs.txt")
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
			got, err := ReadCollection(tc.open())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(collectionRows(got), collectionRows(c)) {
				t.Fatal("rows differ from the written collection's")
			}
			for _, n := range c.Nodes() {
				b, rows := got.Logs[n].Batch(), c.Logs[n].Len()
				for col, cp := range map[string]int{"sender": cap(b.sender), "receiver": cap(b.receiver),
					"origin": cap(b.origin), "seq": cap(b.seq), "time": cap(b.time), "typ": cap(b.typ)} {
					if cp != rows {
						t.Errorf("node %v: %s column of capacity %d for %d rows", n, col, cp, rows)
					}
				}
			}
		})
	}
}

// TestTextDecodeGrowsByDoubling: through a reader that reports no size —
// refill-serve's text bodies — headers size nothing, and a long node log
// grows by doubling from 256 rows. Doubled, the capacities a column passes
// through sum to about twice its last; grown by append's quarter steps,
// to about five times.
func TestTextDecodeGrowsByDoubling(t *testing.T) {
	const rows = 1 << 17
	c := NewCollection()
	for i := range rows {
		c.Add(Event{Node: 3, Type: Recv, Sender: 1, Receiver: 3, Packet: PacketID{Origin: 1, Seq: uint32(i)}, Time: int64(i)})
	}
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadCollection(struct{ io.Reader }{bytes.NewReader(buf.Bytes())})
	runtime.ReadMemStats(&after)
	if err != nil || got.TotalEvents() != rows {
		t.Fatalf("read %v events, err %v", got.TotalEvents(), err)
	}
	const rowSize = 4*4 + 8 + 1
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*rowSize*rows+128<<10); alloc > limit {
		t.Errorf("decoding %d rows allocated %d bytes, want at most %d (three times the columns, and the scanner)", rows, alloc, limit)
	}
}
