package event

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Residency windows: the out-of-core analysis path (core.Analyzer.
// AnalyzeSnapshot) feeds a snapshot to an ingest session one time-window at a
// time, punctuating every node at the window's cut so the session finalizes
// the packets the window completes. The planner below cuts a collection into
// row-balanced windows by TIME — so after window k every unfed row is
// strictly above its cut, as punctuating there asserts — while feeding by
// per-node ROW RANGES, so a window reads only its own rows of the file
// (Snapshot.ReadSpan). The bridge between the two is the repo-wide log
// assumption made explicit: per-node logs are append-only in local-clock
// order, so "rows with time <= t" is a per-node prefix and one binary search
// per node turns a time cut into a row bound. PlanWindows verifies the
// assumption (one sequential pass over the time column — the only
// full-column touch the plan costs) and refuses collections that violate it
// rather than feeding rows twice or never.

// WindowPlan is a residency-window schedule over a collection: ascending time
// cuts, and for every (window, node) the exclusive row bound of the node's
// rows with time <= cut. Window k feeds each node's rows
// [bounds[k-1], bounds[k]) — the windows tile every log exactly. The final
// cut is always math.MaxInt64, so the last window drains every log.
type WindowPlan struct {
	nodes    []NodeID
	cuts     []int64
	bounds   [][]int32 // [window][node index] exclusive row bound
	rowStart []uint64  // per node: global row offset in snapshot layout
}

// PlanWindows cuts c into residency windows of roughly targetRows rows each.
// It fails if any node's log is not time-nondecreasing — the property the
// per-node prefix feeding depends on (and the property the watermark contract
// already promises for collected logs); callers should fall back to batch
// analysis then. A collection smaller than targetRows yields one window.
func PlanWindows(c *Collection, targetRows int) (*WindowPlan, error) {
	if targetRows < 1 {
		targetRows = 1
	}
	nodes := c.Nodes()
	p := &WindowPlan{nodes: nodes, rowStart: make([]uint64, len(nodes))}
	times := make([][]int64, len(nodes))
	var minT, maxT int64
	total := 0
	first := true
	for i, n := range nodes {
		col := c.Logs[n].batch.time
		times[i] = col
		p.rowStart[i] = uint64(total)
		total += len(col)
		for j, t := range col {
			if j > 0 && t < col[j-1] {
				return nil, fmt.Errorf("event: node %d log not time-ordered at row %d (%d after %d) — windowed feeding needs per-node monotone timestamps", n, j, t, col[j-1])
			}
			if first {
				minT, maxT, first = t, t, false
			} else if t < minT {
				minT = t
			} else if t > maxT {
				maxT = t
			}
		}
	}

	// rowsUpTo counts rows with time <= t across all nodes: a per-node
	// binary search, touching O(nodes * log rows) mapped pages per probe.
	rowsUpTo := func(t int64) int {
		s := 0
		for _, col := range times {
			s += sort.Search(len(col), func(i int) bool { return col[i] > t })
		}
		return s
	}

	// Binary-search the VALUE domain for each interior cut: the smallest
	// time t with at least k/w of the rows at or below it. Cutting by time
	// rather than by row position is what keeps the retirement-safety
	// argument one line (an unfed row is strictly later than the cut);
	// balancing by row count is what keeps window working sets even when
	// the event rate drifts over the campaign. Duplicate cuts (one
	// timestamp dominating the volume) collapse into fewer, larger windows.
	w := (total + targetRows - 1) / targetRows
	if w < 1 {
		w = 1
	}
	for k := 1; k < w; k++ {
		want := k * total / w
		lo, hi := minT, maxT
		for lo < hi {
			mid := lo + int64(uint64(hi-lo)/2) // hi-lo can exceed MaxInt64; as uint64 it is exact
			if rowsUpTo(mid) >= want {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if len(p.cuts) > 0 && lo <= p.cuts[len(p.cuts)-1] {
			continue
		}
		p.cuts = append(p.cuts, lo)
	}
	p.cuts = append(p.cuts, math.MaxInt64)

	p.bounds = make([][]int32, len(p.cuts))
	for k, cut := range p.cuts {
		bk := make([]int32, len(nodes))
		for i, col := range times {
			if cut == math.MaxInt64 {
				bk[i] = int32(len(col))
				continue
			}
			bk[i] = int32(sort.Search(len(col), func(j int) bool { return col[j] > cut }))
		}
		p.bounds[k] = bk
	}
	return p, nil
}

// Windows returns the number of windows in the plan.
func (p *WindowPlan) Windows() int { return len(p.cuts) }

// Cut returns window k's exclusive upper time bound (math.MaxInt64 for the
// final window).
func (p *WindowPlan) Cut(k int) int64 { return p.cuts[k] }

// Nodes returns the planned nodes in ascending order; Span's node index i
// refers to Nodes()[i].
func (p *WindowPlan) Nodes() []NodeID { return p.nodes }

// Span returns the rows [lo, hi) of node Nodes()[i]'s log that window k
// feeds — the one definition of "window k's rows".
func (p *WindowPlan) Span(k, i int) (lo, hi int) {
	if k > 0 {
		lo = int(p.bounds[k-1][i])
	}
	return lo, int(p.bounds[k][i])
}

// FeedWindow appends window k's rows into dst through AppendRows, node by
// node, so each node's log order is kept (the only order the retirement
// consumer depends on) and its watermark rises to its last fed row. Returns
// the number of packet rows fed; operational rows go to dst's operational
// collection.
func (p *WindowPlan) FeedWindow(c *Collection, k int, dst *PendingStore) int {
	before := dst.Rows()
	for i, n := range p.nodes {
		lo, hi := p.Span(k, i)
		dst.AppendRows(n, &c.Logs[n].batch, lo, hi)
	}
	return dst.Rows() - before
}

// MaxPacketSpread measures the collection's maximum within-packet timestamp
// spread — the exact value of the completeness horizon a deployment would
// bound from its clock-skew and packet-lifetime budgets, saturated at
// math.MaxInt64 (which a session reads as "no bound"). One columnar pass that
// folds each node's run of rows about one packet before touching the
// per-packet table, so the table sees a node's packet once per run, not once
// per row. WriteSnapshot records the result; the out-of-core path scans only
// a snapshot that carries none.
func MaxPacketSpread(c *Collection) int64 {
	var spans spanTable
	spans.resize(c.TotalEvents() / 8) // twice the packets, at CitySee's ~11 rows a packet; more packets grow it
	for _, n := range c.Nodes() {
		b := &c.Logs[n].batch
		var run packetSpan
		for i, typ := range b.typ {
			if !typ.PacketScoped() {
				continue
			}
			key, t := uint64(b.origin[i])<<32|uint64(b.seq[i]), b.time[i]
			if run.used && key == run.key {
				run.min, run.max = min(run.min, t), max(run.max, t)
				continue
			}
			spans.fold(run)
			run = packetSpan{key: key, min: t, max: t, used: true}
		}
		spans.fold(run)
	}
	horizon := int64(0)
	for _, s := range spans.slots {
		if !s.used {
			continue
		}
		d := s.max - s.min
		if d < 0 { // wrapped: the true spread exceeds MaxInt64
			d = math.MaxInt64
		}
		horizon = max(horizon, d)
	}
	return horizon
}

// packetSpan is the timestamp span of one packet, keyed origin<<32|seq.
type packetSpan struct {
	key      uint64
	min, max int64
	used     bool
}

// spanTable folds packet spans by key: open addressing with linear probing
// in one slice, kept at most half full. A Go map would allocate a table per
// thousand-odd entries, and WriteSnapshot, which calls this, is held to its
// allocation count.
type spanTable struct {
	slots []packetSpan
	shift uint // 64 - log2(len(slots))
	n     int
}

// resize moves the spans into a table of at least size slots (16 at least).
func (t *spanTable) resize(size int) {
	old := t.slots
	lg := bits.Len(uint(max(size, 16) - 1))
	t.slots, t.shift, t.n = make([]packetSpan, 1<<lg), uint(64-lg), 0
	for _, s := range old {
		t.fold(s)
	}
}

// fold merges s into its key's span; an unused s is ignored.
func (t *spanTable) fold(s packetSpan) {
	if !s.used {
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	mask := uint64(len(t.slots) - 1)
	for i := s.key * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if !e.used {
			*e = s
			t.n++
			return
		}
		if e.key == s.key {
			e.min, e.max = min(e.min, s.min), max(e.max, s.max)
			return
		}
	}
}

// ReadSpan replaces dst's rows with node Nodes()[i]'s rows of window k
// (Span(k, i)), read from the snapshot file, not through the mapping: one
// read per column at the plan's global row offsets, plus the span's Info
// entries. The plan must have been built over this snapshot's own
// Collection, whose node order and log lengths are the file's. A failed or
// short read panics naming the file and offset: a file truncated under an
// open snapshot must stop the analysis, not feed it short rows.
func (s *Snapshot) ReadSpan(p *WindowPlan, k, i int, dst *Batch) {
	lo, hi := p.Span(k, i)
	n := hi - lo
	dst.Resize(0)
	if n > cap(dst.time) {
		dst.Grow(max(n, 2*cap(dst.time)))
	}
	dst.Resize(n)
	g := p.rowStart[i] + uint64(lo)
	dst.node = p.nodes[i]
	readColumn(s, secType, g, dst.typ)
	readColumn(s, secSender, g, dst.sender)
	readColumn(s, secReceiver, g, dst.receiver)
	readColumn(s, secOrigin, g, dst.origin)
	readColumn(s, secSeq, g, dst.seq)
	readColumn(s, secTime, g, dst.time)
	clear(dst.info)
	if src := s.c.Logs[p.nodes[i]].batch.info; len(src) > 0 {
		for j := lo; j < hi; j++ {
			putInfo(&dst.info, j-lo, src[int32(j)])
		}
	}
}

// readColumn fills col from column section id, starting at global row g.
func readColumn[T any](s *Snapshot, id uint32, g uint64, col []T) {
	b := rawBytes(col)
	if len(b) == 0 {
		return
	}
	off, _, _ := s.file.SectionRange(id)
	off += g * uint64(len(b)/len(col))
	if n, err := s.file.ReadAt(b, int64(off)); n < len(b) {
		panic(fmt.Sprintf("event: snapshot %s: read %d of %d bytes at offset %d: %v", s.path, n, len(b), off, err))
	}
}
