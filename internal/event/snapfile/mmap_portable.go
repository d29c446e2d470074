//go:build refill_nommap || !(linux || darwin)

package snapfile

import (
	"fmt"
	"io"
	"os"
	"unsafe"
)

// Open reads the whole file into memory and validates it — the portable
// fallback when mmap is unavailable (or disabled with the refill_nommap
// build tag for testing). Section slices alias the buffer, which is backed
// by a []uint64 so the 8-byte alignment the zero-copy column casts require
// holds just as it does for a page-aligned mapping ([]byte allocations
// guarantee nothing past 1 byte).
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, fmt.Errorf("snapfile: %s is empty", path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("snapfile: %s too large to read (%d bytes)", path, size)
	}
	words := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("snapfile: read %s: %w", path, err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	s.unmap = func() error { return nil }
	return s, nil
}

// sysDontNeed is unreachable on this build: the portable Open sets no file,
// so Evict returns before calling it.
func sysDontNeed([]byte) {}
