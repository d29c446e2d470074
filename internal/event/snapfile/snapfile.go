// Package snapfile implements the on-disk container behind REFILL's
// zero-copy snapshots: a versioned, little-endian, page-aligned section file
// written append-only and opened via mmap, so readers alias the page cache
// instead of deserializing.
//
// # Layout
//
// A snapshot file is a fixed header, a run of page-aligned sections, a
// section table, and a fixed-size footer — everything little endian:
//
//	header:  magic "RFSNAP\r\n" | version u32 | align u32
//	section: raw bytes, starting at a multiple of align
//	table:   count * entry{id u32, reserved u32, off u64, len u64,
//	         crc u32, reserved u32}, starting at a multiple of 8
//	footer:  tableOff u64 | fileSize u64 | count u32 | tableCRC u32 |
//	         version u32 | magic "RFSN"
//
// The table lives at the END of the file (pointed to by the footer) so the
// writer is strictly append-only: sections stream out as they are produced
// and no seek-back ever happens. Open reads the footer, checks the table's
// CRC and the structural invariants (sections in ascending offset order,
// non-overlapping, inside the file, 8-byte aligned), and is O(sections) —
// it never touches section data. Per-section data CRCs are recorded in the
// table and verified on demand by Verify, keeping the open path O(1) in the
// data size.
//
// The format is defined little endian and the zero-copy readers layered on
// top reinterpret section bytes as typed columns in place, so opening
// requires a little-endian host (every platform this repo targets); Open
// refuses on a big-endian one rather than silently misreading.
package snapfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

const (
	// Magic opens the header; footerMagic closes the footer.
	magic       = "RFSNAP\r\n"
	footerMagic = 0x4E534652 // "RFSN" little endian

	// Version is the current container version.
	Version = 1

	// Align is the in-file alignment of every section start. Page-sized,
	// so mapped sections are page-cache friendly and any element type up
	// to a cache line can be cast in place.
	Align = 4096

	headerSize = 16
	entrySize  = 32
	footerSize = 32
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on the
// platforms this repo targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// HostLittleEndian reports whether the host stores integers little endian.
func HostLittleEndian() bool {
	probe := uint16(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}

// SectionInfo describes one section of an open snapshot.
type SectionInfo struct {
	ID  uint32
	Off uint64
	Len uint64
	CRC uint32
}

// Writer streams a snapshot file section by section. It is append-only:
// Begin/Write/End (or the Append convenience) emit sections in order, and
// Finish appends the section table and footer. A Writer is single-use,
// worker-owned scratch — it must not be shared across goroutines.
//
//refill:owned
type Writer struct {
	w       io.Writer
	off     uint64
	entries []SectionInfo
	open    bool
	crc     uint32
	err     error
	scratch [entrySize]byte
}

// NewWriter starts a snapshot on w, emitting the header immediately.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	var head [headerSize]byte
	copy(head[:8], magic)
	binary.LittleEndian.PutUint32(head[8:12], Version)
	binary.LittleEndian.PutUint32(head[12:16], Align)
	sw.write(head[:])
	return sw
}

// write appends raw bytes, tracking the offset and latching the first error.
func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += uint64(n)
	if err != nil {
		w.err = err
	}
}

// pad advances the stream to the next multiple of align with zero bytes.
var zeroPage [Align]byte

func (w *Writer) pad() {
	if rem := w.off % Align; rem != 0 {
		w.write(zeroPage[:Align-rem])
	}
}

// Begin opens a new section with the given id. Sections may share an id
// only if the layered format gives repeats a meaning; the readers in this
// repo use unique ids.
func (w *Writer) Begin(id uint32) {
	if w.open {
		w.err = fmt.Errorf("snapfile: Begin(%d) with section %d still open", id, w.entries[len(w.entries)-1].ID)
		return
	}
	w.pad()
	w.entries = append(w.entries, SectionInfo{ID: id, Off: w.off})
	w.open = true
	w.crc = 0
}

// Write appends bytes to the open section.
func (w *Writer) Write(p []byte) (int, error) {
	if !w.open {
		w.err = fmt.Errorf("snapfile: Write outside a section")
		return 0, w.err
	}
	w.crc = crc32.Update(w.crc, crcTable, p)
	w.write(p)
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// End closes the open section, committing its length and CRC.
func (w *Writer) End() {
	if !w.open {
		w.err = fmt.Errorf("snapfile: End without Begin")
		return
	}
	e := &w.entries[len(w.entries)-1]
	e.Len = w.off - e.Off
	e.CRC = w.crc
	w.open = false
}

// Append emits one whole section.
func (w *Writer) Append(id uint32, data []byte) {
	w.Begin(id)
	if w.err == nil {
		w.Write(data)
	}
	w.End()
}

// Finish appends the section table and footer. The underlying writer is not
// closed (callers own flushing and syncing). Finish returns the first error
// encountered anywhere in the write.
func (w *Writer) Finish() error {
	if w.err == nil && w.open {
		w.err = fmt.Errorf("snapfile: Finish with a section still open")
	}
	if w.err != nil {
		return w.err
	}
	// The table only needs 8-byte alignment; page-padding it would waste
	// most of a page on small snapshots.
	if rem := w.off % 8; rem != 0 {
		w.write(zeroPage[:8-rem])
	}
	tableOff := w.off
	tableCRC := uint32(0)
	for _, e := range w.entries {
		b := w.scratch[:]
		binary.LittleEndian.PutUint32(b[0:4], e.ID)
		binary.LittleEndian.PutUint32(b[4:8], 0)
		binary.LittleEndian.PutUint64(b[8:16], e.Off)
		binary.LittleEndian.PutUint64(b[16:24], e.Len)
		binary.LittleEndian.PutUint32(b[24:28], e.CRC)
		binary.LittleEndian.PutUint32(b[28:32], 0)
		tableCRC = crc32.Update(tableCRC, crcTable, b)
		w.write(b)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], tableOff)
	binary.LittleEndian.PutUint64(foot[8:16], w.off+footerSize)
	binary.LittleEndian.PutUint32(foot[16:20], uint32(len(w.entries)))
	binary.LittleEndian.PutUint32(foot[20:24], tableCRC)
	binary.LittleEndian.PutUint32(foot[24:28], Version)
	binary.LittleEndian.PutUint32(foot[28:32], footerMagic)
	w.write(foot[:])
	return w.err
}

// WriteFile writes a snapshot file to path atomically. fill emits the
// sections into a Writer over a temp file in path's directory, named after
// pattern as os.CreateTemp names it; the file is then finished, flushed
// through a 1 MiB buffer, fsynced, closed and renamed over path, and the
// directory is fsynced (on unix) so the new name survives a crash. On any
// error path is left as it was and the temp file is removed; after a
// successful rename there is no temp file left to remove.
func WriteFile(path, pattern string, fill func(*Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	w := NewWriter(bw)
	err = fill(w)
	if err == nil {
		err = w.Finish()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

// Snapshot is an open snapshot: the raw mapping plus the validated section
// table. A Snapshot is immutable after Open/Parse and safe to share across
// goroutines; Close (once, by the owner) unmaps it, after which every
// section slice is dead.
type Snapshot struct {
	data     []byte
	sections []SectionInfo
	unmap    func() error
	// file is set only when data is a real file-backed mmap (the unix Open
	// path): ReadAt reads it, and Evict is gated on it, since DONTNEED is
	// only meaningful (and only safe) on a mapping, never on the portable
	// read-into-buffer fallback or a Parse-handed slice.
	file *os.File
}

// Parse validates a snapshot image held in memory and returns a Snapshot
// whose sections alias data. It performs the O(sections) structural checks
// of Open but no data-CRC work; it never allocates proportionally to any
// length field read from the image.
func Parse(data []byte) (*Snapshot, error) {
	if !HostLittleEndian() {
		return nil, fmt.Errorf("snapfile: zero-copy open requires a little-endian host")
	}
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("snapfile: truncated: %d bytes", len(data))
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("snapfile: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("snapfile: unsupported version %d (want %d)", v, Version)
	}
	if a := binary.LittleEndian.Uint32(data[12:16]); a == 0 || a%8 != 0 {
		return nil, fmt.Errorf("snapfile: bad section alignment %d", a)
	}
	foot := data[len(data)-footerSize:]
	if m := binary.LittleEndian.Uint32(foot[28:32]); m != footerMagic {
		return nil, fmt.Errorf("snapfile: bad footer magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(foot[24:28]); v != Version {
		return nil, fmt.Errorf("snapfile: footer version %d disagrees with header", v)
	}
	if size := binary.LittleEndian.Uint64(foot[8:16]); size != uint64(len(data)) {
		return nil, fmt.Errorf("snapfile: footer records %d bytes, file has %d (truncated or grown)", size, len(data))
	}
	tableOff := binary.LittleEndian.Uint64(foot[0:8])
	count := binary.LittleEndian.Uint32(foot[16:20])
	// The table must sit exactly between the last section and the footer;
	// this also bounds count by the actual file size, so the sections
	// slice below cannot be over-allocated by a lying field.
	tableLen := uint64(count) * entrySize
	if tableOff%8 != 0 || tableOff < headerSize ||
		tableOff+tableLen+footerSize != uint64(len(data)) {
		return nil, fmt.Errorf("snapfile: section table [%d, +%d) does not abut the footer", tableOff, tableLen)
	}
	table := data[tableOff : tableOff+tableLen]
	if c := crc32.Checksum(table, crcTable); c != binary.LittleEndian.Uint32(foot[20:24]) {
		return nil, fmt.Errorf("snapfile: section table CRC mismatch")
	}
	s := &Snapshot{data: data, sections: make([]SectionInfo, count)}
	prevEnd := uint64(headerSize)
	for i := range s.sections {
		b := table[i*entrySize:]
		e := SectionInfo{
			ID:  binary.LittleEndian.Uint32(b[0:4]),
			Off: binary.LittleEndian.Uint64(b[8:16]),
			Len: binary.LittleEndian.Uint64(b[16:24]),
			CRC: binary.LittleEndian.Uint32(b[24:28]),
		}
		if e.Off%8 != 0 {
			return nil, fmt.Errorf("snapfile: section %d (id %d) misaligned at offset %d", i, e.ID, e.Off)
		}
		if e.Off < prevEnd {
			return nil, fmt.Errorf("snapfile: section %d (id %d) at offset %d overlaps the previous section ending at %d", i, e.ID, e.Off, prevEnd)
		}
		if e.Len > math.MaxUint64-e.Off || e.Off+e.Len > tableOff {
			return nil, fmt.Errorf("snapfile: section %d (id %d) [%d, +%d) runs past the table", i, e.ID, e.Off, e.Len)
		}
		for j := 0; j < i; j++ {
			if s.sections[j].ID == e.ID {
				return nil, fmt.Errorf("snapfile: duplicate section id %d", e.ID)
			}
		}
		prevEnd = e.Off + e.Len
		s.sections[i] = e
	}
	return s, nil
}

// Section returns the raw bytes of the section with the given id (aliasing
// the mapping — read-only, dead after Close) and whether it exists.
func (s *Snapshot) Section(id uint32) ([]byte, bool) {
	for _, e := range s.sections {
		if e.ID == id {
			return s.data[e.Off : e.Off+e.Len : e.Off+e.Len], true
		}
	}
	return nil, false
}

// VerifiedSection is Section for a small section the caller trusts only
// intact: one that does not hold exactly size bytes, or whose data CRC does
// not match, is reported missing. The size is checked first, so the CRC
// check costs O(size) whatever the file claims.
func (s *Snapshot) VerifiedSection(id uint32, size uint64) ([]byte, bool) {
	for _, e := range s.sections {
		if e.ID != id {
			continue
		}
		b := s.data[e.Off : e.Off+e.Len : e.Off+e.Len]
		if e.Len != size || crc32.Checksum(b, crcTable) != e.CRC {
			return nil, false
		}
		return b, true
	}
	return nil, false
}

// SectionRange returns the file offset and length of the section with the
// given id without materializing a slice — the coordinate space ReadAt
// operates in.
func (s *Snapshot) SectionRange(id uint32) (off, n uint64, ok bool) {
	for _, e := range s.sections {
		if e.ID == id {
			return e.Off, e.Len, true
		}
	}
	return 0, 0, false
}

// Sections lists the snapshot's sections in file order. The slice is the
// snapshot's own storage — read-only.
func (s *Snapshot) Sections() []SectionInfo { return s.sections }

// ReadAt copies len(p) bytes at file offset off into p, as io.ReaderAt does:
// from the file itself when Open mapped it (so the bytes never become this
// process's mapped pages), else from the buffer the portable Open read or
// Parse was handed. A read that comes up short returns the bytes it got and
// an error — io.EOF when the file ends first, as it does when it is
// truncated after Open.
func (s *Snapshot) ReadAt(p []byte, off int64) (int, error) {
	if s.file != nil {
		return s.file.ReadAt(p, off)
	}
	if off < 0 || off > int64(len(s.data)) {
		return 0, io.EOF
	}
	if n := copy(p, s.data[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// Evict drops the mapping's resident pages (MADV_DONTNEED): a later touch of
// a section slice faults its page back in from the page cache, so it costs
// time, never data. It does nothing on a Parse-built snapshot or under the
// portable (refill_nommap) Open, which have no mapping.
func (s *Snapshot) Evict() {
	if s.file != nil {
		sysDontNeed(s.data)
	}
}

// Size returns the total file size in bytes.
func (s *Snapshot) Size() int { return len(s.data) }

// Verify checks every section's data CRC — the O(data) integrity pass the
// O(1) open deliberately skips. Run it when provenance is in doubt (a
// checkpoint picked up after a crash, a file copied between machines).
func (s *Snapshot) Verify() error {
	for i, e := range s.sections {
		if c := crc32.Checksum(s.data[e.Off:e.Off+e.Len], crcTable); c != e.CRC {
			return fmt.Errorf("snapfile: section %d (id %d) data CRC mismatch", i, e.ID)
		}
	}
	return nil
}

// Close releases the mapping (or buffer) and the file. Section slices handed
// out earlier must not be used afterwards. Close is a no-op on a Parse-built
// snapshot.
func (s *Snapshot) Close() error {
	unmap := s.unmap
	s.unmap, s.file = nil, nil
	s.data = nil
	s.sections = nil
	if unmap != nil {
		return unmap()
	}
	return nil
}
