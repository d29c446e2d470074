package event

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// Partition splits a collection into per-packet views, preserving per-node
// event order within each view. Non-packet-scoped events (server up/down) are
// returned separately. Views are ordered by packet ID (origin, then seq) for
// deterministic processing.
//
// Partition is a sort. One scan of the logs (ascending node, log order) gives
// every packet-scoped row the key origin<<32|seq and a global row number; a
// stable LSD radix sort orders the pairs by key; a sweep then cuts a view at
// every key change and a span at every node change, and the rows are
// gathered into one shared arena in that order. The arena is packet-shaped:
// it holds only the type, sender, receiver and time (a row's node is its
// span's, its packet its view's), and its two int64 columns are the sort's
// two key columns, so the sort and the arena together cost 25 bytes a row.
// Stability is what makes the spans right: inside a packet the row numbers
// stay ascending, which is ascending node and log order, so each node's rows
// are adjacent (one span, however other packets interleaved them in its log)
// and in log order. The arena is laid out in view order, so walking a range
// of views reads it front to back. The number of allocations is fixed,
// whatever the collection holds.
//
// Partition runs on the calling goroutine; PartitionWorkers is the same body
// split across several. The sort, the sweep and the gathers (group) are also
// the body behind PendingStore.Retire, whose own scan hands them the
// retiring rows of the session's pending store, so a batch and a session
// window are laid out by the same code.
func Partition(c *Collection) (views []*PacketView, operational []Event) {
	return partition(c, 1)
}

// partitionGrain is the fewest rows PartitionWorkers gives a helper. Timed
// in process on slices of the batch-skew input, two helpers first beat one
// between 32k and 64k rows (EXPERIMENTS.md, "Partition on the driver's
// workers"), so a second helper starts at 2*partitionGrain rows.
const partitionGrain = 1 << 15

// PartitionWorkers is Partition on up to workers goroutines (<= 0 selects
// GOMAXPROCS): min(workers, GOMAXPROCS) helpers, at most one per
// partitionGrain rows, started once for the call. The key scan is split by
// row ranges, each radix pass and the gathers by row ranges of the keys, so
// every helper writes only its own rows; see partition for why the result
// is the same. Views, spans, arena and operational events equal Partition's
// for every worker count.
func PartitionWorkers(c *Collection, workers int) (views []*PacketView, operational []Event) {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	return partition(c, max(1, min(workers, procs, c.TotalEvents()/partitionGrain)))
}

// partitioner is one Partition call, or the recycled state of a Window's
// retires: the logs, the sort's columns and the output. partition runs the
// serial steps itself and hands each parallel step (a phase) to every helper
// at once, each working on its own share; the caller is helper 0, and with
// one helper a phase is a plain call. group reuses the spare capacity of
// every column it finds, so a warmed Window allocates nothing.
type partitioner struct {
	nodes []NodeID
	logs  []*Batch
	// first[ni] is the global number of node ni's first row; the last entry
	// is the total.
	first []uint32
	total int
	// The sort reads keys and rows and writes keys2 and rows2, and the two
	// swap after every pass; a pass's digit is the radixBits key bits from
	// shift up. A key is origin<<32|seq, typed int64 so that the key columns
	// can become the arena's link and time columns; the radix digits read
	// its bits, so the order is the unsigned one.
	keys, keys2 []int64
	rows, rows2 []uint32
	shift       uint
	// The gathers' sources: every log's type, time, sender and receiver
	// column, by node index.
	typs               [][]Type
	times              [][]int64
	senders, receivers [][]NodeID
	// The sweep's node table (see sweep).
	blocks []uint32
	// The output: the rows, the spans, the views and the views' storage.
	arena   *viewArena
	spans   []ViewSpan
	structs []PacketView
	views   []*PacketView

	shares []share
	one    [1]share // shares' storage with one helper
	// phase is what the helpers run once bar releases them; the caller sets
	// it before arriving.
	phase phase
	bar   barrier
}

// share is one helper's part of a phase: its rows and what it reports back.
// The caller sets lo, hi and at before a phase and reads the counts after
// it.
type share struct {
	lo, hi int
	// The scan: at is the first key slot of the share's packet-scoped rows
	// (set from the count phase), packets their number; varying has a bit
	// set where two of their keys differ, and ref is the first key.
	at, packets int
	varying     uint64
	ref         int64
	// hist counts the share's keys by the current pass's digit.
	hist [radixSize]uint32
}

// A radix digit is radixBits wide. Eleven bits sort a campaign's keys — a
// few hundred origins, sequence numbers below 2048 — in two passes, where
// byte digits took three; the histogram, 8 KiB, still sits in L1.
const (
	radixBits = 11
	radixSize = 1 << radixBits
)

type phase uint8

const (
	phaseCount   phase = iota // count the share's packet-scoped rows
	phaseScan                 // key and number the share's rows
	phaseHist                 // histogram the share's keys by digit
	phaseScatter              // move the share's keys to their digit's slots
	phaseGather               // fill the share's arena rows
	phaseStop                 // return
)

// partition is Partition's one body, on helpers goroutines.
//
// Each phase gives every helper a contiguous share, and the result does not
// depend on where the shares are cut. The scan's shares are global row
// ranges, so a helper that knows how many packet-scoped rows come before
// its share (phaseCount) fills the same key slots, and the same operational
// slots from the back, as one scan would. Each share's varying bits are
// relative to its own first key; v | (ref ^ ref0) re-bases them on the
// collection's first, so the union is the set of bits where some two keys
// differ, as one scan computes it. A radix pass histograms each key share,
// then places digit d of share w after every smaller digit and after digit d
// of every earlier share, so equal digits keep their input order and the
// sort stays stable. The gathers fill arena rows by position, so any cut
// will do; since a view's packet is its key, they read only the logs' type,
// sender, receiver and time columns. What stays serial: the operational
// events, the shares' bookkeeping, Info, and the sweep that cuts views and
// spans; timed end to end on batch-skew, a sweep split at view boundaries
// saved nothing.
func partition(c *Collection, helpers int) (views []*PacketView, operational []Event) {
	p := &partitioner{nodes: c.Nodes(), total: c.TotalEvents(), arena: &viewArena{}}
	checkArenaRows(int64(p.total))
	p.first = make([]uint32, len(p.nodes)+1)
	p.logs = make([]*Batch, len(p.nodes))
	hasInfo := false
	for ni, nd := range p.nodes {
		b := &c.Logs[nd].batch
		p.logs[ni] = b
		hasInfo = hasInfo || len(b.info) > 0
		p.first[ni+1] = p.first[ni] + uint32(len(b.typ))
	}
	// Packet-scoped rows fill keys and rows from the front, operational
	// rows fill rows from the back.
	p.keys, p.rows = make([]int64, p.total), make([]uint32, p.total)
	p.shares = p.one[:]
	if helpers > 1 {
		p.shares = make([]share, helpers)
		p.bar.init(helpers)
		for w := 1; w < helpers; w++ {
			go p.helper(w)
		}
	}

	p.split(p.total)
	if helpers > 1 {
		p.each(phaseCount)
		at := 0
		for w := range p.shares {
			s := &p.shares[w]
			s.at, at = at, at+s.packets
		}
	}
	p.each(phaseScan)
	n, ref0 := 0, int64(0)
	var varying uint64 // key bits that differ between some two rows
	for _, s := range p.shares {
		if s.packets == 0 {
			continue
		}
		if n == 0 {
			ref0 = s.ref
		}
		varying |= s.varying | uint64(s.ref^ref0)
		n += s.packets
	}
	if nops := p.total - n; nops > 0 { // else nil, as OperationalEvents returns it
		operational = make([]Event, nops)
		for k := range operational {
			r := p.rows[p.total-1-k]
			ni := nodeOfRow(p.first, r)
			operational[k] = p.logs[ni].At(int(r - p.first[ni]))
		}
		sort.Slice(operational, func(i, j int) bool { return operational[i].Time < operational[j].Time })
	}

	p.keys, p.rows = p.keys[:n], p.rows[:n]
	views = p.group(varying, hasInfo)
	if helpers > 1 {
		p.phase = phaseStop
		p.bar.wait()
	}
	return views, operational
}

// group is the body Partition and PendingStore.Retire share. Its input is
// p.keys and p.rows, one entry per row to lay out, in ascending global row
// order, with varying set where two of the keys differ; it sorts them, cuts
// the views and spans, gathers the arena rows and, when hasInfo is set,
// fills the arena's Info table.
//
// Each pass starts its digit at the lowest key bit that varies above the
// last digit, so bits that are the same in every key cost no pass: a
// campaign's keys sort in two or three passes, any input in at most six,
// and a sparse key space costs passes, never memory. rows2 ends up spare;
// the sweep reuses it. keys2 ends up spare too and becomes the arena's time
// column (with no pass to run it serves that alone); keys becomes its link
// column once the sweep has cut the views.
func (p *partitioner) group(varying uint64, hasInfo bool) []*PacketView {
	n := len(p.keys)
	p.keys2, p.rows2 = sized(p.keys2, n), sized(p.rows2, n)
	p.split(n)
	for p.shift = 0; p.shift < 64 && varying>>p.shift != 0; p.shift += radixBits {
		p.shift += uint(bits.TrailingZeros64(varying >> p.shift))
		p.each(phaseHist)
		p.each(phaseScatter)
		p.keys, p.keys2, p.rows, p.rows2 = p.keys2, p.keys, p.rows2, p.rows
	}

	views := p.sweep(n)
	nl := len(p.logs)
	p.typs, p.times, p.senders, p.receivers = sized(p.typs, nl), sized(p.times, nl), sized(p.senders, nl), sized(p.receivers, nl)
	for ni, b := range p.logs {
		p.typs[ni], p.times[ni], p.senders[ni], p.receivers[ni] = b.typ, b.time, b.sender, b.receiver
	}
	p.each(phaseGather)
	if hasInfo { // the arena's table is complete before any worker reads it
		for j, ni := range p.rows2 {
			putInfo(&p.arena.info, j, p.logs[ni].info[int32(p.rows[j])])
		}
	}
	return views
}

// helper runs helper w's share of every phase until the caller stops it.
func (p *partitioner) helper(w int) {
	for {
		p.bar.wait()
		if p.phase == phaseStop {
			return
		}
		p.step(p.phase, w)
		p.bar.wait()
	}
}

// each runs phase ph on every helper, the caller's share included, and
// returns when all are done.
func (p *partitioner) each(ph phase) {
	if len(p.shares) == 1 {
		p.step(ph, 0)
		return
	}
	p.phase = ph
	p.bar.wait()
	p.step(ph, 0)
	p.bar.wait()
}

func (p *partitioner) step(ph phase, w int) {
	s := &p.shares[w]
	switch ph {
	case phaseCount:
		p.count(s)
	case phaseScan:
		p.scan(s)
	case phaseHist:
		s.hist = [radixSize]uint32{}
		for _, k := range p.keys[s.lo:s.hi] {
			s.hist[digit(k, p.shift)]++
		}
	case phaseScatter:
		p.scatter(w)
	case phaseGather:
		p.gatherRows(s)
	}
}

// split cuts [0, n) into one equal share per helper.
func (p *partitioner) split(n int) {
	h := len(p.shares)
	for w := range p.shares {
		p.shares[w].lo, p.shares[w].hi = n*w/h, n*(w+1)/h
	}
}

// clip returns the part of global rows [lo, hi) in node ni's log, as rows
// [i0, i1) of that log.
func (p *partitioner) clip(ni, lo, hi int) (i0, i1 int) {
	base := int(p.first[ni])
	return max(lo, base) - base, min(hi, int(p.first[ni+1])) - base
}

// count counts the packet-scoped rows of the share's global rows.
func (p *partitioner) count(s *share) {
	s.packets = 0
	for ni := nodeOfRow(p.first, uint32(s.lo)); ni < len(p.logs) && int(p.first[ni]) < s.hi; ni++ {
		i0, i1 := p.clip(ni, s.lo, s.hi)
		for _, t := range p.logs[ni].typ[i0:i1] {
			if t.PacketScoped() {
				s.packets++
			}
		}
	}
}

// scan gives each packet-scoped row of the share's global rows its key and
// number, in node and log order from key slot s.at on, and numbers the
// operational rows from the back of rows, after the s.lo-s.at that come
// before the share.
func (p *partitioner) scan(s *share) {
	keys, rows := p.keys, p.rows
	n, nops := s.at, s.lo-s.at
	var varying uint64
	var ref int64
	for ni := nodeOfRow(p.first, uint32(s.lo)); ni < len(p.logs) && int(p.first[ni]) < s.hi; ni++ {
		b, base := p.logs[ni], p.first[ni]
		i0, i1 := p.clip(ni, s.lo, s.hi)
		for i := i0; i < i1; i++ {
			if !b.typ[i].PacketScoped() {
				nops++
				rows[p.total-nops] = base + uint32(i)
				continue
			}
			k := int64(b.origin[i])<<32 | int64(b.seq[i])
			if n == s.at {
				ref = k
			}
			keys[n], rows[n] = k, base+uint32(i)
			varying |= uint64(k ^ ref)
			n++
		}
	}
	s.packets, s.varying, s.ref = n-s.at, varying, ref
}

// scatter moves helper w's share of keys (and their rows) to their places
// by the current digit: after every key with a smaller digit, and after the
// keys with the same digit in earlier shares.
func (p *partitioner) scatter(w int) {
	var next [radixSize]uint32 // next[d]: where the share's next key with digit d goes
	sum := uint32(0)
	for d := range next {
		for v := range p.shares {
			if v == w {
				next[d] = sum
			}
			sum += p.shares[v].hist[d]
		}
	}
	s := &p.shares[w]
	keys2, rows2, shift := p.keys2, p.rows2, p.shift
	rows := p.rows[s.lo:s.hi]
	for i, k := range p.keys[s.lo:s.hi] {
		d := digit(k, shift)
		keys2[next[d]], rows2[next[d]] = k, rows[i]
		next[d]++
	}
}

// blockRows is how many global rows one entry of the sweep's node table
// covers.
const blockRows = 256

// digit is key k's radix digit from bit shift up, read unsigned.
func digit(k int64, shift uint) uint64 { return uint64(k) >> shift & (radixSize - 1) }

// sweep resolves each sorted row from a global number to its node index
// (in rows2) and its row in that node's log (in rows), and cuts a view at
// every key change and a span at every node change inside a view. Row
// numbers ascend inside a packet, so the node changes only when one passes
// the end of the current node's log. The first pass notes where each span
// starts, and whether a view starts there, in keys2, which is spare until
// the gathers fill it as the arena's time column; the second makes the
// views and spans from those notes alone. The arena's link column is keys,
// which the gathers overwrite once the views hold the packets.
func (p *partitioner) sweep(n int) []*PacketView {
	keys, rows, nis, first, starts := p.keys, p.rows, p.rows2, p.first, p.keys2
	// blocks[b] is the node that holds global row b*blockRows, so a row's
	// node is found from its block's by stepping over the logs that begin
	// inside the block, mostly none: cheaper than a binary search, whose
	// probes mispredict.
	blocks := sized(p.blocks, (int(first[len(first)-1])+blockRows-1)/blockRows)
	for b := range blocks {
		blocks[b] = uint32(nodeOfRow(first, uint32(b*blockRows)))
	}
	p.blocks = blocks
	nviews, nspans := 0, 0
	for j, ni := 0, 0; j < n; j++ {
		newView := j == 0 || keys[j] != keys[j-1]
		if newView || rows[j] >= first[ni+1] {
			ni = int(blocks[rows[j]/blockRows])
			for rows[j] >= first[ni+1] {
				ni++
			}
			starts[nspans] = int64(j) << 1
			if newView {
				starts[nspans] |= 1
				nviews++
			}
			nspans++
		}
		nis[j], rows[j] = uint32(ni), rows[j]-first[ni]
	}

	a := p.arena
	a.link, a.time, a.typ, a.info = keys, p.keys2, sized(a.typ, n), nil
	p.keys, p.keys2 = nil, nil
	spans := sized(p.spans, nspans)
	structs := sized(p.structs, nviews)[:0]
	views := sized(p.views, nviews)[:0]
	var v *PacketView
	vs := 0 // the current view's first span
	for s, st := range starts[:nspans] {
		j, end := int32(st>>1), int32(n)
		if s+1 < nspans {
			end = int32(starts[s+1] >> 1)
		}
		if st&1 != 0 {
			pkt := PacketID{Origin: NodeID(keys[j] >> 32), Seq: uint32(keys[j])}
			structs = append(structs, PacketView{Packet: pkt, rows: a})
			v = &structs[len(structs)-1]
			views = append(views, v)
			vs = s
		}
		spans[s] = ViewSpan{Node: p.nodes[nis[j]], Start: j, End: end}
		v.spans = spans[vs : s+1 : s+1]
	}
	p.spans, p.structs, p.views = spans, structs, views
	return views
}

// gatherRows fills the share's rows of the arena. The source columns are
// read one at a time: a loop reading one source column keeps many cache
// misses in flight, a loop reading four does not. So the link column takes
// two passes: the senders into its high halves, then the receivers into its
// low ones.
func (p *partitioner) gatherRows(s *share) {
	lo, hi, arena := s.lo, s.hi, p.arena
	nis, rows := p.rows2[lo:hi], p.rows[lo:hi]
	gather(arena.typ[lo:hi], p.typs, nis, rows)
	gather(arena.time[lo:hi], p.times, nis, rows)
	snd, rcv, l := p.senders, p.receivers, arena.link[lo:hi]
	for j := range l {
		l[j] = link(snd[nis[j]][rows[j]], 0)
	}
	for j := range l {
		l[j] |= int64(rcv[nis[j]][rows[j]])
	}
}

// nodeOfRow returns the index of the node whose log holds global row r: the
// ni with first[ni] <= r < first[ni+1].
func nodeOfRow(first []uint32, r uint32) int {
	return sort.Search(len(first)-1, func(ni int) bool { return first[ni+1] > r })
}

// sized returns s resized to n elements, its contents undefined: its own
// storage when that holds n, else new storage a quarter larger than the old
// (or n), so a Window that retires ever larger windows reallocates a
// column now and then, not at every retire. Nil grows to exactly n.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, max(n, cap(s)+cap(s)/4))
	}
	return s[:n]
}

// gather fills one arena column: dst[j] is row rows[j] of source column
// src[nis[j]].
func gather[T any](dst []T, src [][]T, nis, rows []uint32) {
	for j := range dst {
		dst[j] = src[nis[j]][rows[j]]
	}
}

// barrier holds each of n goroutines at wait until all n have arrived. It
// is reused phase after phase: round tells one release from the next.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n, here int
	round   uint64
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond.L = &b.mu
}

func (b *barrier) wait() {
	b.mu.Lock()
	if b.here++; b.here == b.n {
		b.here = 0
		b.round++
		b.cond.Broadcast()
	} else {
		for r := b.round; r == b.round; {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
