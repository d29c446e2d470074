package event

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/event/snapfile"
)

// Snapshot format
//
// A Collection persisted as a snapfile container: every hot Batch column of
// every log, concatenated node-major (ascending NodeID, per-node log order
// preserved — the only ordering REFILL assumes), becomes ONE file section,
// so opening a snapshot is six unsafe slice casts plus a span index — no
// per-event work at all. The cold Info side table rides along as an index +
// blob pair; Info strings materialize as unsafe.Strings aliasing the blob.
//
// Section ids, relative to a base (the base lets a larger container — the
// ingest checkpoint — embed several collections side by side):
//
//	base+0   meta: rows u64 | nodes u64 | infos u64
//	base+1   retired: a node u32 a row, written before a row's node became its
//	         span's; ignored, so that the files that have it still open
//	base+2…7 columns: type u8 | sender u32 | receiver u32 | origin u32 |
//	         seq u32 | time i64   (one section per column)
//	base+8   span index: nodes * {node u32, reserved u32, start u64, end u64}
//	         strictly ascending by node, contiguous from 0 to rows
//	base+9   info index: infos * {row u32, off u32, len u32, reserved u32}
//	         strictly ascending by global row
//	base+10  info blob
//	base+11  max packet spread: i64 (MaxPacketSpread), written by
//	         WriteSnapshot only — a checkpoint's collections carry none
//
// Section 11 is optional: a file written before it existed, or one whose copy
// fails its own CRC or is negative, has its spread scanned instead
// (Snapshot.RecordedSpread). A too-small horizon would split packets, so a
// damaged value may cost time, never the answer.
//
// The batches a snapshot yields are read-only (Batch.ReadOnly): their
// columns alias the mapping, so mutators panic rather than fault. Clone
// gives a writable copy.

const (
	// SectionStride spaces collection bases inside a shared container.
	SectionStride = 16

	secMeta      = 0
	secNode      = 1 // retired (see above): reserved, so that no section reuses it
	secType      = 2
	secSender    = 3
	secReceiver  = 4
	secOrigin    = 5
	secSeq       = 6
	secTime      = 7
	secSpanIndex = 8
	secInfoIndex = 9
	secInfoBlob  = 10
	secSpread    = 11

	spanEntrySize = 24
	infoEntrySize = 16
	metaSize      = 24
)

// rawBytes reinterprets a slice of fixed-size elements as its backing bytes.
// Little-endian layout on disk equals the in-memory layout on every platform
// this repo targets; WriteSnapshot guards the exotic case.
func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), uintptr(len(s))*unsafe.Sizeof(zero))
}

// castColumn reinterprets section bytes as a typed column of exactly rows
// elements. The data normally comes from a page-aligned mapping (or the
// 8-byte-aligned portable buffer), making the cast free; if a caller hands
// Parse an arbitrarily-aligned buffer (fuzzing), the column is copied out
// instead — correctness over zero-copy, never unaligned loads.
func castColumn[T any](data []byte, rows int) ([]T, error) {
	var zero T
	size := unsafe.Sizeof(zero)
	if uintptr(len(data)) != size*uintptr(rows) {
		return nil, fmt.Errorf("event: snapshot column holds %d bytes, want %d rows × %d", len(data), rows, size)
	}
	if rows == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&data[0]))%unsafe.Alignof(zero) != 0 {
		out := make([]T, rows)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(data)), data)
		return out, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[0])), rows), nil
}

// AppendCollectionSections serializes c into w as the section family rooted
// at base. The caller owns Begin/Finish of the surrounding container.
func AppendCollectionSections(w *snapfile.Writer, base uint32, c *Collection) error {
	if !snapfile.HostLittleEndian() {
		return fmt.Errorf("event: snapshot writing requires a little-endian host")
	}
	nodes := c.Nodes()
	rows := c.TotalEvents()
	if int64(rows) > math.MaxUint32 {
		return fmt.Errorf("event: collection too large for a snapshot (%d rows)", rows)
	}

	// Cold side table first (in memory — Info is rare by design).
	var infoIndex, infoBlob []byte
	infos := 0
	rowBase := 0
	for _, n := range nodes {
		b := &c.Logs[n].batch
		for i := 0; i < b.Len(); i++ {
			s := b.Info(i)
			if s == "" {
				continue
			}
			if len(infoBlob)+len(s) > math.MaxUint32 {
				return fmt.Errorf("event: snapshot info blob exceeds 4GiB")
			}
			var e [infoEntrySize]byte
			binary.LittleEndian.PutUint32(e[0:4], uint32(rowBase+i))
			binary.LittleEndian.PutUint32(e[4:8], uint32(len(infoBlob)))
			binary.LittleEndian.PutUint32(e[8:12], uint32(len(s)))
			infoIndex = append(infoIndex, e[:]...)
			infoBlob = append(infoBlob, s...)
			infos++
		}
		rowBase += b.Len()
	}

	var meta [metaSize]byte
	binary.LittleEndian.PutUint64(meta[0:8], uint64(rows))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(len(nodes)))
	binary.LittleEndian.PutUint64(meta[16:24], uint64(infos))
	w.Append(base+secMeta, meta[:])

	column := func(id uint32, col func(b *Batch) []byte) {
		w.Begin(base + id)
		for _, n := range nodes {
			w.Write(col(&c.Logs[n].batch))
		}
		w.End()
	}
	column(secType, func(b *Batch) []byte { return rawBytes(b.typ) })
	column(secSender, func(b *Batch) []byte { return rawBytes(b.sender) })
	column(secReceiver, func(b *Batch) []byte { return rawBytes(b.receiver) })
	column(secOrigin, func(b *Batch) []byte { return rawBytes(b.origin) })
	column(secSeq, func(b *Batch) []byte { return rawBytes(b.seq) })
	column(secTime, func(b *Batch) []byte { return rawBytes(b.time) })

	w.Begin(base + secSpanIndex)
	start := uint64(0)
	for _, n := range nodes {
		end := start + uint64(c.Logs[n].Len())
		var e [spanEntrySize]byte
		binary.LittleEndian.PutUint32(e[0:4], uint32(n))
		binary.LittleEndian.PutUint64(e[8:16], start)
		binary.LittleEndian.PutUint64(e[16:24], end)
		w.Write(e[:])
		start = end
	}
	w.End()

	w.Append(base+secInfoIndex, infoIndex)
	w.Append(base+secInfoBlob, infoBlob)
	return nil
}

// section fetches a required section of the family at base.
func section(s *snapfile.Snapshot, base, id uint32) ([]byte, error) {
	b, ok := s.Section(base + id)
	if !ok {
		return nil, fmt.Errorf("event: snapshot is missing section %d (base %d)", id, base)
	}
	return b, nil
}

// CollectionFromSections assembles the read-only Collection stored at base.
// The work is O(nodes + info entries), independent of the row count: columns
// are cast in place and per-log batches are subslices of them. Logs (and the
// strings the lazy Info maps hold) alias the snapshot — they die with it.
func CollectionFromSections(s *snapfile.Snapshot, base uint32) (*Collection, error) {
	meta, err := section(s, base, secMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != metaSize {
		return nil, fmt.Errorf("event: snapshot meta section holds %d bytes, want %d", len(meta), metaSize)
	}
	rows64 := binary.LittleEndian.Uint64(meta[0:8])
	nodes64 := binary.LittleEndian.Uint64(meta[8:16])
	infos64 := binary.LittleEndian.Uint64(meta[16:24])
	// The section table already bounds every section by the file size, so a
	// lying meta count can only force a mismatch error below, never an
	// allocation: everything sized from it is checked against real section
	// lengths first.
	if rows64 > math.MaxUint32 || nodes64 > rows64+1 {
		return nil, fmt.Errorf("event: snapshot meta implausible: %d rows, %d nodes", rows64, nodes64)
	}
	rows := int(rows64)

	spanIdx, err := section(s, base, secSpanIndex)
	if err != nil {
		return nil, err
	}
	if uint64(len(spanIdx)) != nodes64*spanEntrySize {
		return nil, fmt.Errorf("event: snapshot span index holds %d bytes, want %d nodes × %d", len(spanIdx), nodes64, spanEntrySize)
	}
	nNodes := int(nodes64)

	var cols struct {
		sender, receiver, origin []NodeID
		typ                      []Type
		seq                      []uint32
		time                     []int64
	}
	load := func(id uint32, dst func(data []byte) error) {
		if err != nil {
			return
		}
		var data []byte
		if data, err = section(s, base, id); err == nil {
			err = dst(data)
		}
	}
	load(secType, func(d []byte) (e error) { cols.typ, e = castColumn[Type](d, rows); return })
	load(secSender, func(d []byte) (e error) { cols.sender, e = castColumn[NodeID](d, rows); return })
	load(secReceiver, func(d []byte) (e error) { cols.receiver, e = castColumn[NodeID](d, rows); return })
	load(secOrigin, func(d []byte) (e error) { cols.origin, e = castColumn[NodeID](d, rows); return })
	load(secSeq, func(d []byte) (e error) { cols.seq, e = castColumn[uint32](d, rows); return })
	load(secTime, func(d []byte) (e error) { cols.time, e = castColumn[int64](d, rows); return })
	if err != nil {
		return nil, err
	}

	// One Log arena + a size-hinted map: the whole assembly stays in the
	// low tens of allocations however many logs the campaign has.
	logs := make([]Log, nNodes)
	c := &Collection{Logs: make(map[NodeID]*Log, nNodes)}
	prevNode := int64(-1)
	prevEnd := uint64(0)
	for i := 0; i < nNodes; i++ {
		e := spanIdx[i*spanEntrySize:]
		node := binary.LittleEndian.Uint32(e[0:4])
		start := binary.LittleEndian.Uint64(e[8:16])
		end := binary.LittleEndian.Uint64(e[16:24])
		if int64(node) <= prevNode {
			return nil, fmt.Errorf("event: snapshot span index mis-ordered: node %d after %d", node, prevNode)
		}
		if start != prevEnd || end < start || end > rows64 {
			return nil, fmt.Errorf("event: snapshot span index not contiguous: node %d spans [%d, %d) after row %d", node, start, end, prevEnd)
		}
		prevNode, prevEnd = int64(node), end
		l := &logs[i]
		l.Node = NodeID(node)
		l.batch = Batch{
			node:     l.Node,
			typ:      cols.typ[start:end:end],
			sender:   cols.sender[start:end:end],
			receiver: cols.receiver[start:end:end],
			origin:   cols.origin[start:end:end],
			seq:      cols.seq[start:end:end],
			time:     cols.time[start:end:end],
			ro:       true,
		}
		c.Logs[l.Node] = l
	}
	if prevEnd != rows64 {
		return nil, fmt.Errorf("event: snapshot span index covers %d of %d rows", prevEnd, rows64)
	}

	if infos64 > 0 {
		if err := attachInfo(c, logs, s, base, infos64, rows64); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// attachInfo replays the cold side table into per-log Info maps, as
// unsafe.Strings aliasing the blob section. Off the common path: campaign
// snapshots typically carry zero Info entries.
func attachInfo(c *Collection, logs []Log, s *snapfile.Snapshot, base uint32, infos, rows uint64) error {
	idx, err := section(s, base, secInfoIndex)
	if err != nil {
		return err
	}
	if uint64(len(idx)) != infos*infoEntrySize {
		return fmt.Errorf("event: snapshot info index holds %d bytes, want %d entries × %d", len(idx), infos, infoEntrySize)
	}
	blob, err := section(s, base, secInfoBlob)
	if err != nil {
		return err
	}
	li := 0
	logStart := uint64(0)
	prevRow := int64(-1)
	for i := 0; i < int(infos); i++ {
		e := idx[i*infoEntrySize:]
		row := uint64(binary.LittleEndian.Uint32(e[0:4]))
		off := uint64(binary.LittleEndian.Uint32(e[4:8]))
		n := uint64(binary.LittleEndian.Uint32(e[8:12]))
		if int64(row) <= prevRow || row >= rows {
			return fmt.Errorf("event: snapshot info index mis-ordered at row %d", row)
		}
		prevRow = int64(row)
		if off+n > uint64(len(blob)) || n == 0 {
			return fmt.Errorf("event: snapshot info entry [%d, +%d) outside blob of %d bytes", off, n, len(blob))
		}
		for li < len(logs) && row >= logStart+uint64(logs[li].Len()) {
			logStart += uint64(logs[li].Len())
			li++
		}
		if li == len(logs) {
			return fmt.Errorf("event: snapshot info entry at row %d beyond the span index", row)
		}
		b := &logs[li].batch
		if b.info == nil {
			b.info = make(map[int32]string)
		}
		b.info[int32(row-logStart)] = unsafe.String(&blob[off], int(n))
	}
	return nil
}

// Snapshot is an open collection snapshot: the underlying mapping plus the
// assembled read-only Collection. Safe for concurrent readers; Close (once,
// by the owner, after all reads) drops the mapping.
type Snapshot struct {
	file *snapfile.Snapshot
	path string // named by ReadSpan's panic; "" for an in-memory image
	c    *Collection
	// spread is the recorded max packet spread, -1 when none can be trusted.
	spread int64
}

// WriteSnapshot atomically writes c to path in the snapshot format
// (snapfile.WriteFile), recording its max packet spread so the out-of-core
// path need not scan for it.
func WriteSnapshot(path string, c *Collection) error {
	fill := func(w *snapfile.Writer) error { return appendSnapshot(w, c) }
	if err := snapfile.WriteFile(path, ".refill-snap-*", fill); err != nil {
		return fmt.Errorf("event: write snapshot %s: %w", path, err)
	}
	return nil
}

// appendSnapshot writes the sections of a snapshot of c: its collection at
// base 0, then its max packet spread.
func appendSnapshot(w *snapfile.Writer, c *Collection) error {
	if err := AppendCollectionSections(w, 0, c); err != nil {
		return err
	}
	w.Append(secSpread, binary.LittleEndian.AppendUint64(nil, uint64(MaxPacketSpread(c))))
	return nil
}

// OpenSnapshot maps the snapshot at path and assembles its Collection in
// O(sections + nodes) with zero per-event work — the columns the batches
// expose alias the page cache. The collection is read-only (see Batch
// mutators); Clone any log to edit it.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, err := snapfile.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newSnapshot(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	s.path = path
	return s, nil
}

// parseSnapshotData assembles a snapshot from an in-memory image — the
// fuzzing entry point, exercising exactly the Open validation surface.
func parseSnapshotData(data []byte) (*Snapshot, error) {
	f, err := snapfile.Parse(data)
	if err != nil {
		return nil, err
	}
	return newSnapshot(f)
}

// newSnapshot assembles the collection of an opened file and reads its
// recorded spread, trusting it only intact and not negative.
func newSnapshot(f *snapfile.Snapshot) (*Snapshot, error) {
	c, err := CollectionFromSections(f, 0)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{file: f, c: c, spread: -1}
	if b, ok := f.VerifiedSection(secSpread, 8); ok {
		if v := int64(binary.LittleEndian.Uint64(b)); v >= 0 {
			s.spread = v
		}
	}
	return s, nil
}

// Collection returns the snapshot's read-only collection. It aliases the
// mapping: no use after Close.
func (s *Snapshot) Collection() *Collection { return s.c }

// RecordedSpread returns the max packet spread WriteSnapshot recorded, in
// O(1). It reports false for a file that records none (written before the
// section existed) or whose record failed its CRC or was negative; the
// caller then scans the collection with MaxPacketSpread.
func (s *Snapshot) RecordedSpread() (int64, bool) { return s.spread, s.spread >= 0 }

// Rows returns the total event count.
func (s *Snapshot) Rows() int { return s.c.TotalEvents() }

// Evict drops the mapping's resident pages (snapfile.Snapshot.Evict): a later
// read through Collection() faults them back in. The windowed path calls it
// once its plan is made, since from then on it reads rows with ReadSpan.
func (s *Snapshot) Evict() { s.file.Evict() }

// Verify runs the full data-CRC pass over the underlying file — the O(data)
// check the O(1) open skips (see snapfile.Snapshot.Verify).
func (s *Snapshot) Verify() error { return s.file.Verify() }

// Close releases the mapping. The Collection and everything sliced out of
// it must not be touched afterwards.
func (s *Snapshot) Close() error { return s.file.Close() }
