package event_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/workload"
)

// TestViewArenaBytesPerRow pins the packet-shaped view layout by what it
// allocates. Partition, on a generated campaign, may allocate the sort's 24
// bytes a row (two int64 key columns, which become the arena's link and
// time columns, and two uint32 row columns), the arena's 1 (type), the
// views, the spans and the operational events, plus a little for page
// rounding: a node, origin or seq column put back into the arena costs 4
// bytes a row and fails it. A cold PendingStore.Retire is held to the same
// bound, and a warmed Window's retire allocates nothing.
func TestViewArenaBytesPerRow(t *testing.T) {
	res, err := workload.Run(workload.Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Logs
	total := c.TotalEvents()
	ops := len(event.OperationalEvents(c))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	views, _ := event.Partition(c)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	rows, spans := 0, 0
	for _, v := range views {
		rows += v.TotalEvents()
		spans += len(v.Spans())
	}
	perView := unsafe.Sizeof(event.PacketView{}) + unsafe.Sizeof(views[0])
	want := uint64(12*total+12*rows) + // keys and rows over every row, keys2 and rows2 over packet rows
		uint64(rows) + // the arena's typ; keys and keys2 are its link and time
		uint64(len(views))*uint64(perView) + uint64(spans)*uint64(unsafe.Sizeof(event.ViewSpan{})) +
		uint64(ops)*uint64(unsafe.Sizeof(event.Event{}))
	slack := uint64(64<<10 + rows/4)
	t.Logf("Partition: %d rows, %d views, %d spans: %d bytes, %.2f a row (bound %d + %d)",
		rows, len(views), spans, got, float64(got)/float64(rows), want, slack)
	if got > want+slack {
		t.Errorf("Partition allocated %d bytes (%.2f a row), want at most %d + %d slack: has a column come back to the arena?",
			got, float64(got)/float64(rows), want, slack)
	}

	// The retire runs on Partition's body, so a cold one — a fresh store,
	// fed, retiring everything into a fresh Window — may allocate what
	// Partition may, less the operational events (the store keeps them
	// apart), plus the free list the store grows by one int32 a packet,
	// appended.
	feed := func(ps *event.PendingStore) {
		for _, n := range c.Nodes() {
			b := c.Logs[n].Batch()
			ps.AppendRows(n, b, 0, b.Len())
		}
	}
	ps := event.NewPendingStore(0)
	feed(ps)
	var w event.Window
	runtime.ReadMemStats(&before)
	retired := ps.Retire(&w, 0, true)
	runtime.ReadMemStats(&after)
	got = after.TotalAlloc - before.TotalAlloc
	want -= uint64(ops) * uint64(unsafe.Sizeof(event.Event{}))
	want += uint64(5 * 4 * len(views))  // append's growth sums to under five times the free list
	want -= uint64(12 * (total - rows)) // keys and rows cover the store's rows, all packet-scoped
	t.Logf("cold Retire: %d views: %d bytes, %.2f a row (bound %d + %d)",
		len(retired), got, float64(got)/float64(rows), want, slack)
	if len(retired) != len(views) {
		t.Fatalf("cold retire: %d views, Partition built %d", len(retired), len(views))
	}
	if got > want+slack {
		t.Errorf("a cold Retire allocated %d bytes (%.2f a row), want at most %d + %d slack",
			got, float64(got)/float64(rows), want, slack)
	}

	for range 2 { // the second round finds every column, slot and map at size
		feed(ps)
		ps.Retire(&w, 0, true)
	}
	for round := range 3 {
		feed(ps)
		runtime.ReadMemStats(&before)
		retired := ps.Retire(&w, 0, true)
		runtime.ReadMemStats(&after)
		if len(retired) != len(views) {
			t.Fatalf("round %d: retired %d views, Partition built %d", round, len(retired), len(views))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
			t.Errorf("round %d: a warmed Window's retire allocated %d bytes, want 0", round, got)
		}
	}
}
