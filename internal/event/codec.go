package event

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Text log format
//
// One event per line, whitespace separated:
//
//	<node> <type> <sender> <receiver> <packet> <time> [info...]
//
// e.g.
//
//	2 recv 1 2 1:17 120034
//	1 trans 1 2 1:17 119800 attempt=3
//
// Lines starting with '#' and blank lines are ignored. The format is what
// cmd/citysee emits and cmd/refill consumes, standing in for the NesC event
// system's binary records.
//
// Info is whatever follows the time, read as fields: every run of white space
// inside it comes back as one space ("round  2" reads back "round 2"), which
// the binary and snapshot forms do not do, and an Info holding a newline
// cannot be written at all — it would read back as a line of its own.

// appendNodeID appends n's text form (NodeID.String) without allocating.
//
//refill:noalloc
//refill:inline — five calls per formatted event line
func appendNodeID(dst []byte, n NodeID) []byte {
	switch n {
	case NoNode:
		return append(dst, '-')
	case Server:
		return append(dst, "server"...)
	}
	return strconv.AppendUint(dst, uint64(n), 10)
}

// AppendEvent appends one event in the text log format to dst and returns
// the extended buffer — the allocation-free form of FormatEvent, for writers
// that reuse one buffer across millions of events.
//
//refill:noalloc — buffer reuse is the whole point; growth happens only via append
func AppendEvent(dst []byte, e Event) []byte {
	dst = appendNodeID(dst, e.Node)
	dst = append(dst, ' ')
	dst = append(dst, e.Type.String()...)
	dst = append(dst, ' ')
	dst = appendNodeID(dst, e.Sender)
	dst = append(dst, ' ')
	dst = appendNodeID(dst, e.Receiver)
	dst = append(dst, ' ')
	dst = appendNodeID(dst, e.Packet.Origin)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, uint64(e.Packet.Seq), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, e.Time, 10)
	if e.Info != "" {
		dst = append(dst, ' ')
		dst = append(dst, e.Info...)
	}
	return dst
}

// FormatEvent renders one event in the text log format.
func FormatEvent(e Event) string {
	return string(AppendEvent(nil, e))
}

// ParseEvent parses one line of the text log format.
func ParseEvent(line string) (Event, error) { return parseLine([]byte(line)) }

// parseLine is the text decoder. It cuts the six fixed fields out of the
// line's bytes and reads them where they lie: numbers digit by digit, strconv
// only for what that turns down, so that strconv still words every error.
// Further fields are closed up to one space apart in place — this writes over
// line's bytes — so a non-empty Info is the one allocation a good line costs.
//
//refill:noalloc
func parseLine(line []byte) (Event, error) {
	var f [6][]byte
	var e Event
	var err error
	start, at := 0, 0
	for i := range f {
		if start, at = nextField(line, at); start == at {
			//refill:allow escapecheck — error path: the message quotes the line
			return Event{}, fmt.Errorf("event: short log line %q", string(line))
		}
		f[i] = line[start:at]
	}
	if e.Node, err = nodeField(f[0]); err != nil {
		return Event{}, err
	}
	if e.Type, err = typeField(f[1]); err != nil {
		return Event{}, err
	}
	if e.Sender, err = nodeField(f[2]); err != nil {
		return Event{}, err
	}
	if e.Receiver, err = nodeField(f[3]); err != nil {
		return Event{}, err
	}
	if string(f[4]) != "-" {
		if e.Packet, err = packetField(f[4]); err != nil {
			return Event{}, err
		}
	}
	// The time is strconv.ParseInt(f, 10, 64): a sign or none, then digits.
	neg, digits := f[5][0] == '-', f[5]
	if neg || digits[0] == '+' {
		digits = digits[1:]
	}
	if v, ok := parseDigits(digits, 1<<63); ok && (neg || v < 1<<63) {
		if e.Time = int64(v); neg {
			e.Time = -e.Time
		}
	} else if e.Time, err = strconv.ParseInt(string(f[5]), 10, 64); err != nil {
		//refill:allow escapecheck — error path: the message quotes the line
		return Event{}, fmt.Errorf("event: bad time in %q: %v", string(line), err)
	}
	info := line[at:at:len(line)] // written behind the read position: every gap is a byte or more
	for start, at = nextField(line, at); start < at; start, at = nextField(line, at) {
		if len(info) > 0 {
			info = append(info, ' ')
		}
		info = append(info, line[start:at]...)
	}
	//refill:allow escapecheck — the Info string is the row's payload; an empty one allocates nothing
	e.Info = string(info)
	return e, nil
}

// nextField finds the first white-space-delimited field of s at or after i,
// s[start:end]: empty when only white space is left. White space is what the
// strings package's Fields splits on — the six ASCII bytes, and from 0x80 up
// any rune unicode.IsSpace accepts (an invalid byte is RuneError: not one).
//
//refill:noalloc
func nextField(s []byte, i int) (start, end int) {
	start = i
	for i < len(s) {
		c, w := s[i], 1
		if c <= ' ' || c >= utf8.RuneSelf { // anything but a plain field byte
			space := c == ' ' || '\t' <= c && c <= '\r'
			if c >= utf8.RuneSelf {
				w, space = wideChar(s[i:])
			}
			if space && i > start {
				return start, i
			}
			if space {
				start = i + w // still in the white space before the field
			}
		}
		i += w
	}
	return start, i
}

// wideChar is nextField's slow step, kept out of its loop: the width of the
// non-ASCII character s starts with and whether it is white space.
func wideChar(s []byte) (w int, space bool) {
	r, w := utf8.DecodeRune(s)
	return w, unicode.IsSpace(r)
}

// parseDigits reads f as a decimal number no larger than limit (at most
// 1<<63). It takes what strconv.ParseUint(f, 10, …) takes: one or more ASCII
// digits, leading zeros allowed, no sign, no underscore.
func parseDigits(f []byte, limit uint64) (v uint64, ok bool) {
	for _, c := range f {
		d := uint64(c - '0') // wraps to > 9 below '0'
		if d > 9 || v > limit/10 {
			return 0, false
		}
		v = v*10 + d // at most limit+9: no wrap, and past limit only on the last digit
	}
	return v, len(f) > 0 && v <= limit
}

// nodeField is ParseNodeID on the field's bytes.
//
//refill:noalloc
func nodeField(f []byte) (NodeID, error) {
	if v, ok := parseDigits(f, math.MaxUint32); ok {
		return NodeID(v), nil
	}
	switch string(f) {
	case "-":
		return NoNode, nil
	case "server":
		return Server, nil
	}
	v, err := strconv.ParseUint(string(f), 10, 32)
	if err != nil {
		//refill:allow escapecheck — error path: the message quotes the field
		return NoNode, fmt.Errorf("event: bad node id %q: %v", string(f), err)
	}
	return NodeID(v), nil
}

// typeField is ParseType on the field's bytes.
//
//refill:noalloc
func typeField(f []byte) (Type, error) {
	if t := typeOf(f); t != Invalid {
		return t, nil
	}
	//refill:allow escapecheck — error path: the message quotes the field
	return Invalid, fmt.Errorf("event: unknown event type %q", string(f))
}

// typeOf returns the type named f, Invalid when f names none.
//
//refill:noalloc
func typeOf(f []byte) Type {
	for t := Invalid + 1; t < numTypes; t++ {
		if string(f) == typeNames[t] {
			return t
		}
	}
	return Invalid
}

// packetField is ParsePacketID on the field's bytes.
//
//refill:noalloc
func packetField(f []byte) (PacketID, error) {
	i := 0 // a loop, not bytes.IndexByte: the colon is a few bytes in and the call costs more than the scan
	for i < len(f) && f[i] != ':' {
		i++
	}
	if i == len(f) {
		//refill:allow escapecheck — error path: the message quotes the field
		return PacketID{}, fmt.Errorf("event: bad packet id %q: missing ':'", string(f))
	}
	origin, err := nodeField(f[:i])
	if err != nil {
		return PacketID{}, err
	}
	seq, ok := parseDigits(f[i+1:], math.MaxUint32)
	if !ok {
		if seq, err = strconv.ParseUint(string(f[i+1:]), 10, 32); err != nil {
			//refill:allow escapecheck — error path: the message quotes the field
			return PacketID{}, fmt.Errorf("event: bad packet seq in %q: %v", string(f), err)
		}
	}
	return PacketID{Origin: origin, Seq: uint32(seq)}, nil
}

// WriteCollection writes all logs in the collection to w, node by node in
// ascending node order, preserving per-node event order. One line buffer is
// reused for every event (AppendEvent), so the write path allocates per
// node, not per event. An Info that holds a newline is refused.
func WriteCollection(w io.Writer, c *Collection) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 128)
	for _, n := range c.Nodes() {
		line = append(line[:0], "# node "...)
		line = appendNodeID(line, n)
		line = append(line, " ("...)
		line = strconv.AppendInt(line, int64(c.Logs[n].Len()), 10)
		line = append(line, " events)\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
		b := c.Logs[n].Batch()
		for i := 0; i < b.Len(); i++ {
			e := b.At(i)
			if e.Info != "" && strings.Contains(e.Info, "\n") {
				return fmt.Errorf("event: node %v row %d: info holds a newline, which the text format cannot carry", n, i)
			}
			line = AppendEvent(line[:0], e)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCollection parses a text log stream into a collection. Per-node order
// follows the order lines appear in the stream.
//
// A line in the plain form — what AppendEvent writes for an event with no
// Info and a time of 0 or more (plainLine) — is decoded in one pass and
// appended straight to its node log's columns. Every other line goes
// through parseLine, so the values, the Info, every error and its line
// number are parseLine's whichever way a line is read.
//
// A node log is sized once, on the row that creates it, by the `# node N
// (K events)` header WriteCollection writes before the node's rows. A
// header is a comment, so it can lie: it creates no log, and the rows all
// headers may reserve together are capped at the rows the input can hold —
// its size (inputSize) over the shortest valid line. A reader that reports
// no size gets no hints. Past a hint, or without one, the columns double,
// from 256 rows. On a sized reader that growth draws on the same budget, and
// the line buffer starts no larger than the input, so a small body (a
// refill-serve append) costs about its own size.
func ReadCollection(r io.Reader) (*Collection, error) {
	d := textDecoder{c: NewCollection()}
	buf := 64 << 10
	if size, ok := inputSize(r); ok {
		d.sized, d.budget = true, size/int64(len(shortestLine))
		buf = int(min(int64(buf), size+1))
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, buf), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		if e, ok := plainLine(sc.Bytes()); ok {
			d.add(e)
			continue
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			d.header(line)
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		d.add(e)
	}
	if err := sc.Err(); err != nil { // bufio.ErrTooLong, or the reader's own
		return nil, fmt.Errorf("line %d: %w", lineno+1, err)
	}
	return d.c, nil
}

// shortestLine is the shortest line parseLine accepts, with its newline:
// one-byte node, sender, receiver, packet and time, and a three-letter
// type.
const shortestLine = "0 gen 0 0 - 0\n"

// textDecoder is ReadCollection's state between lines.
type textDecoder struct {
	c   *Collection
	log *Log // of the node the last row named: files run node by node
	// hint is the count of the last header read, for hintNode: the next
	// log created takes it if it is that node's. Zero is no hint.
	hint     int64
	hintNode NodeID
	// sized is set when the reader reported its size; then budget is the
	// rows hints and growth may still reserve.
	sized  bool
	budget int64
}

// add appends e to its node's log. Reserve by doubling: append grows a
// large slice by a quarter, so the capacities it goes through sum to five
// times the last; doubled, to twice. Columns only this decoder fills share
// one capacity: check one. On a sized reader the growth is capped by the
// budget; once that is spent, Append's own growth takes over.
//
//refill:noalloc
func (d *textDecoder) add(e Event) {
	if d.log == nil || d.log.Node != e.Node {
		d.open(e.Node)
	}
	if b := &d.log.batch; b.Len() == cap(b.time) {
		rows := int64(max(b.Len(), 256))
		if d.sized {
			rows = min(rows, d.budget)
			d.budget -= rows
		}
		b.Grow(int(rows))
	}
	d.log.batch.Append(e)
}

// open makes n's log the one rows go to, creating it if this is n's first
// row — sized by the last header when that header names n.
func (d *textDecoder) open(n NodeID) {
	log, ok := d.c.Logs[n]
	if !ok {
		log = d.c.Log(n)
		if d.hintNode == n {
			rows := min(d.hint, d.budget)
			log.batch.Grow(int(rows))
			d.budget -= rows
		}
		d.hint = 0
	}
	d.log = log
}

// header reads a comment line in the form WriteCollection heads each node's
// rows with, `# node N (K events)`, as a hint that the next log created, if
// it is N's, will hold K rows. Any other comment is ignored.
func (d *textDecoder) header(line []byte) {
	rest, ok := bytes.CutPrefix(line, []byte("# node "))
	if !ok {
		return
	}
	n, at, ok := plainNode(rest, 0, ' ')
	if !ok || at == len(rest) || rest[at] != '(' {
		return
	}
	k, end := plainDigits(rest, at+1, 19)
	if end == at+1 || k > math.MaxInt64 || string(rest[end:]) != " events)" {
		return
	}
	d.hint, d.hintNode = int64(k), n
}

// plainLine decodes line when it is in the plain form: six fields one space
// apart, nothing before or after; each node field "-", "server" or one to
// ten digits; the packet "-" or origin:seq, with a seq of one to ten
// digits; the type one of typeNames; the time one to nineteen digits. It
// reports false for any other line. Each field is read where the scan
// finds it, so every byte is looked at once; on a line it accepts,
// parseLine returns the same event.
//
//refill:noalloc
func plainLine(line []byte) (e Event, ok bool) {
	at := 0
	if e.Node, at, ok = plainNode(line, at, ' '); !ok {
		return e, false
	}
	end := at
	for end < len(line) && line[end] != ' ' {
		end++
	}
	if e.Type = typeOf(line[at:end]); e.Type == Invalid {
		return e, false
	}
	if e.Sender, at, ok = plainNode(line, end+1, ' '); !ok { // fails past the end
		return e, false
	}
	if e.Receiver, at, ok = plainNode(line, at, ' '); !ok {
		return e, false
	}
	if at+1 < len(line) && line[at] == '-' && line[at+1] == ' ' {
		at += 2 // no packet
	} else {
		if e.Packet.Origin, at, ok = plainNode(line, at, ':'); !ok {
			return e, false
		}
		seq, end := plainDigits(line, at, 10)
		if end == at || seq > math.MaxUint32 || end == len(line) || line[end] != ' ' {
			return e, false
		}
		e.Packet.Seq, at = uint32(seq), end+1
	}
	t, end := plainDigits(line, at, 19)
	if end == at || end != len(line) || t > math.MaxInt64 {
		return e, false
	}
	e.Time = int64(t)
	return e, true
}

// plainNode reads a node field of the plain form at s[i:], ended by sep,
// and returns the node and the index just past sep.
//
//refill:noalloc
func plainNode(s []byte, i int, sep byte) (n NodeID, next int, ok bool) {
	end := i + 1
	switch {
	case i >= len(s):
		return 0, i, false
	case s[i] == '-':
		n = NoNode
	case s[i] == 's':
		if end = i + len("server"); end > len(s) || string(s[i:end]) != "server" {
			return 0, i, false
		}
		n = Server
	default:
		v, j := plainDigits(s, i, 10)
		if j == i || v > math.MaxUint32 {
			return 0, i, false
		}
		n, end = NodeID(v), j
	}
	if end == len(s) || s[end] != sep {
		return 0, i, false
	}
	return n, end + 1, true
}

// plainDigits reads the run of ASCII digits at s[i:], at most most of them
// (at most 19, which cannot overflow), and returns its value and the index
// past it: i when there is none.
//
//refill:noalloc
func plainDigits(s []byte, i, most int) (v uint64, end int) {
	run := s[i:min(len(s), i+most)]
	for k, c := range run {
		d := c - '0' // wraps to > 9 below '0'
		if d > 9 {
			return v, i + k
		}
		v = v*10 + uint64(d)
	}
	return v, i + len(run)
}
