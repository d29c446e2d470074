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
	for t := Invalid + 1; t < numTypes; t++ {
		if string(f) == typeNames[t] {
			return t, nil
		}
	}
	//refill:allow escapecheck — error path: the message quotes the field
	return Invalid, fmt.Errorf("event: unknown event type %q", string(f))
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
func ReadCollection(r io.Reader) (*Collection, error) {
	c := NewCollection()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var log *Log // of the node the last line named: files run node by node
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if log == nil || log.Node != e.Node {
			log = c.Log(e.Node)
		}
		// Reserve by doubling: append grows a large slice by a quarter, so the
		// capacities it goes through sum to five times the last; doubled, to
		// twice. Columns only this loop fills share one capacity: check one.
		if b := &log.batch; b.Len() == cap(b.time) {
			b.Grow(max(b.Len(), 256))
		}
		log.batch.Append(e)
	}
	if err := sc.Err(); err != nil { // bufio.ErrTooLong, or the reader's own
		return nil, fmt.Errorf("line %d: %w", lineno+1, err)
	}
	return c, nil
}
