package event_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/workload"
)

// TestDecodeBytesPerRow pins what a decoded row costs by what the decoders
// allocate: a batch keeps its node once, so a row is its six columns, 25
// bytes (type 1, sender, receiver, origin and seq 4 each, time 8).
// ReadCollectionBinary, and ReadCollection over a reader that reports its
// size, size each log once from its header, so either may allocate 25 bytes a
// row plus a slack: the 64 KiB reader or line buffer, the collection's map
// and logs, and each column rounded up to its size class or page, under 2
// bytes a row on this campaign. A node column put back costs 4 bytes a row
// and fails it: decoders that kept one allocated 31.2 bytes a row here.
func TestDecodeBytesPerRow(t *testing.T) {
	res, err := workload.Run(workload.Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Logs
	rows, nodes := c.TotalEvents(), len(c.Nodes())
	var bin, text bytes.Buffer
	if err := event.WriteCollectionBinary(&bin, c); err != nil {
		t.Fatal(err)
	}
	if err := event.WriteCollection(&text, c); err != nil {
		t.Fatal(err)
	}
	const perRow = 25
	slack := uint64(2*64<<10 + 2*rows)
	for _, tc := range []struct {
		name string
		read func() (*event.Collection, error)
	}{
		{"binary", func() (*event.Collection, error) { return event.ReadCollectionBinary(bytes.NewReader(bin.Bytes())) }},
		{"text", func() (*event.Collection, error) { return event.ReadCollection(bytes.NewReader(text.Bytes())) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := tc.read()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalEvents() != rows {
				t.Fatalf("decoded %d rows, want %d", got.TotalEvents(), rows)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d rows on %d nodes: %d bytes, %.2f a row (bound %d + %d)",
				rows, nodes, alloc, float64(alloc)/float64(rows), uint64(perRow*rows), slack)
			if alloc > uint64(perRow*rows)+slack {
				t.Errorf("decoding allocated %d bytes (%.2f a row), want at most %d + %d slack: has a column come back?",
					alloc, float64(alloc)/float64(rows), perRow*rows, slack)
			}
		})
	}
}
