//go:build (linux || darwin) && !refill_nommap

package snapfile

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// Open maps the file read-only and validates it. Section slices alias the
// page cache: no copy, no per-event allocation, contents materialize on
// first touch. The file stays open for ReadAt; Close unmaps and closes it.
func Open(path string) (s *Snapshot, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, fmt.Errorf("snapfile: %s is empty", path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("snapfile: %s too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("snapfile: mmap %s: %w", path, err)
	}
	if s, err = Parse(data); err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	s.unmap = func() error { return errors.Join(syscall.Munmap(data), f.Close()) }
	s.file = f
	return s, nil
}

// sysDontNeed drops b's resident pages (b is a whole live mapping). The error
// is deliberately dropped: madvise is advisory, and a declined hint must never
// fail an analysis.
func sysDontNeed(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
