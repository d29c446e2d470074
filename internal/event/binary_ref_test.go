package event

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// referenceReadCollectionBinary is the record-at-a-time decoder
// ReadCollectionBinary replaced, kept as FuzzReadCollectionBinary's oracle:
// every record is peeked, built into an Event and appended on its own. The
// chunk decoder must return the same collection, column by column, and the
// same error strings.
func referenceReadCollectionBinary(r io.Reader) (*Collection, error) {
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
		node, count := NodeID(le.Uint32(hdr)), le.Uint32(hdr[4:])
		br.Discard(8)
		left -= 8
		log := c.Log(node)
		grow := int64(min(count, 1<<16))
		if sized {
			grow = min(int64(count), max(left, 0)/recordFixedSize)
		}
		log.Batch().Grow(int(grow))
		for i := uint32(0); i < count; i++ {
			rec, err := br.Peek(recordFixedSize)
			if len(rec) > 0 && !Type(rec[0]).Valid() {
				return nil, fmt.Errorf("event: invalid type %d in binary log", rec[0])
			}
			if err != nil {
				return nil, fmt.Errorf("event: truncated record: %w", err)
			}
			e := Event{
				Node:     node,
				Type:     Type(rec[0]),
				Sender:   NodeID(le.Uint32(rec[1:])),
				Receiver: NodeID(le.Uint32(rec[5:])),
				Packet:   PacketID{Origin: NodeID(le.Uint32(rec[9:])), Seq: le.Uint32(rec[13:])},
				Time:     int64(le.Uint64(rec[17:])),
			}
			infoLen := int(le.Uint16(rec[25:]))
			br.Discard(recordFixedSize)
			left -= int64(recordFixedSize + infoLen)
			if infoLen > 0 {
				info, err := br.Peek(infoLen)
				if err != nil {
					return nil, fmt.Errorf("event: truncated info: %w", err)
				}
				e.Info = string(info)
				br.Discard(infoLen)
			}
			log.Append(e)
		}
	}
}
