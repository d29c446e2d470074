package event

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
)

// Binary log format
//
// A compact fixed-layout encoding for large campaigns (the 30-day default
// collects millions of records; the text form is ~1.2x larger and ~4x slower
// to parse). Layout, little endian:
//
//	magic "RFBL" | version u8
//	per node: node u32 | count u32 | count * record
//	record: type u8 | sender u32 | receiver u32 | origin u32 | seq u32 |
//	        time i64 | infoLen u16 | info bytes
//
// The per-node grouping preserves exactly what matters: each node's log
// order.

const (
	binaryMagic   = "RFBL"
	binaryVersion = 1
	// recordFixedSize is a record up to and including infoLen.
	recordFixedSize = 1 + 4*4 + 8 + 2
)

// WriteCollectionBinary writes the collection in the binary log format.
func WriteCollectionBinary(w io.Writer, c *Collection) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	var scratch [8]byte
	u32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	i64 := func(v int64) error {
		binary.LittleEndian.PutUint64(scratch[:8], uint64(v))
		_, err := bw.Write(scratch[:8])
		return err
	}
	for _, n := range c.Nodes() {
		b := c.Logs[n].Batch()
		if err := u32(uint32(n)); err != nil {
			return err
		}
		if err := u32(uint32(b.Len())); err != nil {
			return err
		}
		for i := 0; i < b.Len(); i++ {
			info := b.Info(i)
			if len(info) > 0xFFFF {
				return fmt.Errorf("event: info too long (%d bytes)", len(info))
			}
			if err := bw.WriteByte(byte(b.Type(i))); err != nil {
				return err
			}
			if err := u32(uint32(b.Sender(i))); err != nil {
				return err
			}
			if err := u32(uint32(b.Receiver(i))); err != nil {
				return err
			}
			pkt := b.Packet(i)
			if err := u32(uint32(pkt.Origin)); err != nil {
				return err
			}
			if err := u32(pkt.Seq); err != nil {
				return err
			}
			if err := i64(b.Time(i)); err != nil {
				return err
			}
			binary.LittleEndian.PutUint16(scratch[:2], uint16(len(info)))
			if _, err := bw.Write(scratch[:2]); err != nil {
				return err
			}
			if _, err := bw.WriteString(info); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCollectionBinary parses the binary log format.
//
// Each node log is grown once, to its header's count, so decoding writes
// into columns of the final size. A header can lie, so the count is capped
// at the rows the rest of the input can hold when the reader reports its
// size (inputSize), and at 1<<16 rows when it does not: no header makes the
// reader allocate columns for more rows than the input holds, or than that
// fixed cap. Past the cap, the columns double as the rows arrive.
//
// A node section is decoded a buffer at a time: decodeRecords writes every
// whole, info-free record the reader already holds straight into the
// columns, and readRecord takes the one record that stops it — one that
// straddles the buffer's end, carries Info or is bad — on its own.
func ReadCollectionBinary(r io.Reader) (*Collection, error) {
	left, sized := inputSize(r)
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, 5)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("event: bad binary header: %w", err)
	}
	if string(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("event: not a binary log (magic %q)", head[:4])
	}
	if head[4] != binaryVersion {
		return nil, fmt.Errorf("event: unsupported binary log version %d", head[4])
	}
	c, le := NewCollection(), binary.LittleEndian
	left -= int64(len(head))
	for {
		hdr, err := br.Peek(8) // node u32 | count u32
		switch {
		case len(hdr) == 0 && err == io.EOF:
			return c, nil
		case len(hdr) < 4:
			return nil, fmt.Errorf("event: truncated node header: %w", err)
		case err != nil:
			return nil, fmt.Errorf("event: truncated node count: %w", err)
		}
		node, count := NodeID(le.Uint32(hdr)), int(le.Uint32(hdr[4:]))
		br.Discard(8) // cannot fail: Peek just returned these bytes
		left -= 8
		log := c.Log(node)
		grow := int64(min(count, 1<<16))
		if sized {
			grow = min(int64(count), max(left, 0)/recordFixedSize)
		}
		log.Batch().Grow(int(grow))
		for count > 0 {
			buf, _ := br.Peek(br.Buffered()) // cannot fail: these bytes are buffered
			k := decodeRecords(log.Batch(), node, buf, count)
			br.Discard(k * recordFixedSize) // cannot fail, as above
			left -= int64(k * recordFixedSize)
			if count -= k; count == 0 {
				break
			}
			size, err := readRecord(br, log)
			if err != nil {
				return nil, err
			}
			left -= int64(size)
			count--
		}
	}
}

// decodeRecords appends to b, as node n's rows, the leading records of
// buf that are whole, carry no Info and have a valid type, at most limit
// of them, and returns how many it took. It writes the columns by index,
// growing them as reserve would when the header's count was capped.
func decodeRecords(b *Batch, n NodeID, buf []byte, limit int) int {
	k := 0
	for end := min(len(buf)/recordFixedSize, limit); k < end; k++ {
		rec := buf[k*recordFixedSize:]
		if !Type(rec[0]).Valid() || rec[25]|rec[26] != 0 {
			break
		}
	}
	if k == 0 {
		return 0
	}
	b.claim(n)
	lo := b.extend(k)
	typ, sender, receiver := b.typ[lo:lo+k], b.sender[lo:lo+k], b.receiver[lo:lo+k]
	origin, seq, time := b.origin[lo:lo+k], b.seq[lo:lo+k], b.time[lo:lo+k]
	le := binary.LittleEndian
	for i := range typ {
		rec := (*[recordFixedSize]byte)(buf[i*recordFixedSize:])
		typ[i] = Type(rec[0])
		sender[i] = NodeID(le.Uint32(rec[1:]))
		receiver[i] = NodeID(le.Uint32(rec[5:]))
		origin[i] = NodeID(le.Uint32(rec[9:]))
		seq[i] = le.Uint32(rec[13:])
		time[i] = int64(le.Uint64(rec[17:]))
	}
	return k
}

// readRecord decodes one record into log, reading past the buffer when the
// record straddles its end, and returns the bytes the record takes.
func readRecord(br *bufio.Reader, log *Log) (int, error) {
	le := binary.LittleEndian
	// One Peek covers the record's fixed part; the type byte is judged
	// first, so a bad type in a short record is still reported as a bad
	// type.
	rec, err := br.Peek(recordFixedSize)
	if len(rec) > 0 && !Type(rec[0]).Valid() {
		return 0, fmt.Errorf("event: invalid type %d in binary log", rec[0])
	}
	if err != nil {
		return 0, fmt.Errorf("event: truncated record: %w", err)
	}
	e := Event{
		Type:     Type(rec[0]),
		Sender:   NodeID(le.Uint32(rec[1:])),
		Receiver: NodeID(le.Uint32(rec[5:])),
		Packet:   PacketID{Origin: NodeID(le.Uint32(rec[9:])), Seq: le.Uint32(rec[13:])},
		Time:     int64(le.Uint64(rec[17:])),
	}
	infoLen := int(le.Uint16(rec[25:]))
	br.Discard(recordFixedSize) // cannot fail: Peek just returned these bytes
	if infoLen > 0 {
		// infoLen is a u16, so the Peek fits the 64 KiB buffer.
		info, err := br.Peek(infoLen)
		if err != nil {
			return 0, fmt.Errorf("event: truncated info: %w", err)
		}
		e.Info = string(info)
		br.Discard(infoLen) // cannot fail, as above
	}
	log.batch.reserve(1) // every column grows through Grow, so extend checks one
	log.Append(e)
	return recordFixedSize + infoLen, nil
}

// inputSize returns how many bytes r can still deliver at most, when r can
// tell: the unread bytes of an in-memory reader (bytes.Reader,
// strings.Reader, bytes.Buffer), or the size of a regular file, a bound on
// what is left of it wherever its offset stands.
func inputSize(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	}
	return 0, false
}
