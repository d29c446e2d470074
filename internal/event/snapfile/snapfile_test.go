package snapfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildImage writes a small two-section snapshot and returns its bytes.
// t may be nil (fuzz seeding).
func buildImage(t testing.TB) []byte {
	if t != nil {
		t.Helper()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(1, []byte("hello, columns"))
	w.Begin(7)
	w.Write([]byte("second "))
	w.Write([]byte("section"))
	w.End()
	if err := w.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	img := buildImage(t)
	s, err := Parse(img)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := len(s.Sections()); got != 2 {
		t.Fatalf("sections = %d, want 2", got)
	}
	one, ok := s.Section(1)
	if !ok || string(one) != "hello, columns" {
		t.Fatalf("section 1 = %q, %v", one, ok)
	}
	two, ok := s.Section(7)
	if !ok || string(two) != "second section" {
		t.Fatalf("section 7 = %q, %v", two, ok)
	}
	if _, ok := s.Section(99); ok {
		t.Fatal("section 99 should not exist")
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Sections must start on Align boundaries and alias the image.
	for _, e := range s.Sections() {
		if e.Off%Align != 0 {
			t.Errorf("section id %d at off %d not %d-aligned", e.ID, e.Off, Align)
		}
	}
	if &one[0] != &img[Align] {
		t.Error("section 1 does not alias the image")
	}
}

func TestOpenFile(t *testing.T) {
	img := buildImage(t)
	path := filepath.Join(t.TempDir(), "x.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if b, ok := s.Section(7); !ok || string(b) != "second section" {
		t.Fatalf("section 7 = %q, %v", b, ok)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Double close is safe.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("Open(missing) should fail")
	}
}

func TestEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Sections()) != 0 {
		t.Fatalf("sections = %d, want 0", len(s.Sections()))
	}
}

func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write outside a section should fail")
	}
	if err := w.Finish(); err == nil {
		t.Fatal("Finish should report the latched error")
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.Begin(1)
	w.Begin(2) // nested Begin
	if err := w.Finish(); err == nil {
		t.Fatal("nested Begin should latch an error")
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.Begin(1)
	if err := w.Finish(); err == nil {
		t.Fatal("Finish with open section should fail")
	}
}

// corrupt applies f to a copy of img and asserts Parse rejects it with an
// error mentioning want.
func corrupt(t *testing.T, img []byte, want string, f func([]byte)) {
	t.Helper()
	c := append([]byte(nil), img...)
	f(c)
	_, err := Parse(c)
	if err == nil {
		t.Fatalf("Parse accepted corruption (want error containing %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want substring %q", err, want)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	img := buildImage(t)
	foot := len(img) - footerSize

	t.Run("short", func(t *testing.T) {
		if _, err := Parse(img[:headerSize+footerSize-1]); err == nil {
			t.Fatal("short image accepted")
		}
		if _, err := Parse(nil); err == nil {
			t.Fatal("nil image accepted")
		}
	})
	t.Run("magic", func(t *testing.T) {
		corrupt(t, img, "bad magic", func(b []byte) { b[0] = 'X' })
	})
	t.Run("header-version", func(t *testing.T) {
		corrupt(t, img, "unsupported version", func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], Version+1)
		})
	})
	t.Run("alignment-field", func(t *testing.T) {
		corrupt(t, img, "alignment", func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:16], 3)
		})
	})
	t.Run("footer-magic", func(t *testing.T) {
		corrupt(t, img, "footer magic", func(b []byte) { b[len(b)-1] = 0 })
	})
	t.Run("footer-version", func(t *testing.T) {
		corrupt(t, img, "footer version", func(b []byte) {
			binary.LittleEndian.PutUint32(b[foot+24:foot+28], Version+1)
		})
	})
	t.Run("truncated", func(t *testing.T) {
		// Chop a tail off while keeping a plausible footer: the recorded
		// fileSize no longer matches.
		c := append([]byte(nil), img[:len(img)-footerSize-entrySize]...)
		c = append(c, img[len(img)-footerSize:]...)
		if _, err := Parse(c); err == nil {
			t.Fatal("truncated image accepted")
		}
	})
	t.Run("table-off", func(t *testing.T) {
		corrupt(t, img, "section table", func(b []byte) {
			binary.LittleEndian.PutUint64(b[foot:foot+8], uint64(len(b)))
		})
	})
	t.Run("lying-count", func(t *testing.T) {
		// A huge count must be rejected by the geometry check before any
		// allocation sized from it.
		corrupt(t, img, "section table", func(b []byte) {
			binary.LittleEndian.PutUint32(b[foot+16:foot+20], 1<<30)
		})
	})
	t.Run("table-crc", func(t *testing.T) {
		corrupt(t, img, "table CRC", func(b []byte) {
			tableOff := binary.LittleEndian.Uint64(b[foot : foot+8])
			b[tableOff] ^= 0xFF
		})
	})
	t.Run("data-crc", func(t *testing.T) {
		// Parse is O(sections) and does not read data; Verify catches it.
		c := append([]byte(nil), img...)
		c[Align] ^= 0xFF // first byte of section 1
		s, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse should pass (data CRCs are lazy): %v", err)
		}
		if err := s.Verify(); err == nil {
			t.Fatal("Verify accepted corrupted section data")
		}
	})
}

// rewriteTable patches entry i of the section table in img, recomputing the
// table CRC so Parse reaches the structural checks under test.
func rewriteTable(t *testing.T, img []byte, i int, f func(entry []byte)) []byte {
	t.Helper()
	c := append([]byte(nil), img...)
	foot := len(c) - footerSize
	tableOff := binary.LittleEndian.Uint64(c[foot : foot+8])
	count := binary.LittleEndian.Uint32(c[foot+16 : foot+20])
	table := c[tableOff : tableOff+uint64(count)*entrySize]
	f(table[i*entrySize : (i+1)*entrySize])
	binary.LittleEndian.PutUint32(c[foot+20:foot+24], crc32.Checksum(table, crcTable))
	return c
}

func TestParseRejectsBadSections(t *testing.T) {
	img := buildImage(t)

	t.Run("misaligned", func(t *testing.T) {
		c := rewriteTable(t, img, 0, func(e []byte) {
			binary.LittleEndian.PutUint64(e[8:16], Align+4)
		})
		if _, err := Parse(c); err == nil || !strings.Contains(err.Error(), "misaligned") {
			t.Fatalf("err = %v, want misaligned", err)
		}
	})
	t.Run("overlap", func(t *testing.T) {
		// Pull section 7 back onto section 1's pages.
		c := rewriteTable(t, img, 1, func(e []byte) {
			binary.LittleEndian.PutUint64(e[8:16], Align)
		})
		if _, err := Parse(c); err == nil || !strings.Contains(err.Error(), "overlaps") {
			t.Fatalf("err = %v, want overlaps", err)
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		c := rewriteTable(t, img, 1, func(e []byte) {
			binary.LittleEndian.PutUint64(e[16:24], 1<<40)
		})
		if _, err := Parse(c); err == nil || !strings.Contains(err.Error(), "past the table") {
			t.Fatalf("err = %v, want past the table", err)
		}
	})
	t.Run("duplicate-id", func(t *testing.T) {
		c := rewriteTable(t, img, 1, func(e []byte) {
			binary.LittleEndian.PutUint32(e[0:4], 1)
		})
		if _, err := Parse(c); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("err = %v, want duplicate", err)
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add(buildImage(nil))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// A snapshot that parses must expose consistent sections.
		for _, e := range s.Sections() {
			b, ok := s.Section(e.ID)
			if !ok || uint64(len(b)) != e.Len {
				t.Fatalf("section %d inconsistent: ok=%v len=%d want %d", e.ID, ok, len(b), e.Len)
			}
		}
		s.Verify() // must not panic regardless of verdict
	})
}

// TestWriteFileFailureKeepsPrevious: a write whose fill fails after emitting
// a megabyte, or whose final rename fails, leaves the previous file
// byte-identical and no temp file behind.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	if err := WriteFile(path, ".refill-test-*", func(w *Writer) error { w.Append(1, []byte("previous")); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fill failed")
	err = WriteFile(path, ".refill-test-*", func(w *Writer) error {
		w.Append(1, bytes.Repeat([]byte("next"), 1<<18))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the fill's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("previous file changed by a failed write (err %v)", err)
	}
	blocked := filepath.Join(dir, "blocked") // a non-empty directory: renaming onto it fails
	if err := os.MkdirAll(filepath.Join(blocked, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, ".refill-test-*", func(w *Writer) error { return nil }); err == nil {
		t.Fatal("WriteFile onto a non-empty directory succeeded")
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"blocked", "s.snap"}) {
		t.Fatalf("directory holds %v after the failed writes, want [blocked s.snap]", names)
	}
}

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
