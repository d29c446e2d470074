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
// every packet-scoped row one int64 item, its packet key origin<<32|seq
// compressed to the key bits that vary, above its global row number; a
// stable LSD radix sort orders the items by key; a sweep then cuts a view at
// every key change and a span at every node change, and the rows are
// gathered into one shared arena in that order. The arena is packet-shaped:
// it holds only the type, sender, receiver and time (a row's node is its
// span's, its packet its view's), and its two int64 columns are the sort's
// two item columns, so the sort and the arena together cost 17 bytes a row.
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
// row ranges, each radix pass and the gathers by row ranges of the items, so
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
	// The sort reads items and writes items2, and the two swap after every
	// pass. An item is a row's packet key, compressed (keyBits), above its
	// global row number: typed int64 so that the columns can become the
	// arena's link and time, read unsigned by the radix digits.
	items, items2 []int64
	// The key layout, set by keyBits: mask has the key bits that vary, cbits
	// of them; an item holds hold of the compressed bits, from base up, above
	// rbits row-number bits. A pass's digit is the radixBits compressed bits
	// from shift up.
	mask                            uint64
	cbits, hold, base, rbits, shift uint
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
	// The count: packets is the number of the share's packet-scoped rows,
	// varying has a bit set where two of their keys differ, and ref is the
	// first key. The scan writes their items from slot at on.
	at, packets int
	varying     uint64
	ref         uint64
	// hist counts the share's items by the current pass's digit.
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
	phaseCount   phase = iota // count the share's packet-scoped rows and key bits
	phaseScan                 // write the share's items
	phaseHist                 // histogram the share's items by digit
	phaseScatter              // move the share's items to their digit's slots
	phaseGather               // fill the share's arena rows
	phaseStop                 // return
)

// partition is Partition's one body, on helpers goroutines.
//
// Each phase gives every helper a contiguous share, and the result does not
// depend on where the shares are cut. The count and the scan take global
// row ranges. Each share's varying bits are relative to its own first key;
// v | (ref ^ ref0) re-bases them on the collection's first, so the union is
// the set of bits where some two keys differ, as one count computes it, and
// every share compresses keys alike. A helper that knows how many
// packet-scoped rows come before its share fills the same item slots, and
// the same operational slots from the back, as one scan would. A radix pass
// histograms each item share, then places digit d of share w after every
// smaller digit and after digit d of every earlier share, so equal digits
// keep their input order and the sort stays stable. The gathers fill arena
// rows by position, so any cut will do. What stays serial: the operational
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
	// Packet-scoped rows fill items from the front, operational rows' row
	// numbers fill it from the back.
	p.items = make([]int64, p.total)
	p.shares = p.one[:]
	if helpers > 1 {
		p.shares = make([]share, helpers)
		p.bar.init(helpers)
		for w := 1; w < helpers; w++ {
			go p.helper(w)
		}
	}

	p.split(p.total)
	p.each(phaseCount)
	n, ref0 := 0, uint64(0)
	var varying uint64 // key bits that differ between some two rows
	for w := range p.shares {
		s := &p.shares[w]
		if s.packets > 0 {
			if n == 0 {
				ref0 = s.ref
			}
			varying |= s.varying | (s.ref ^ ref0)
		}
		s.at, n = n, n+s.packets
	}
	p.keyBits(varying, p.total)
	p.each(phaseScan)
	if nops := p.total - n; nops > 0 { // else nil, as OperationalEvents returns it
		operational = make([]Event, nops)
		for k := range operational {
			r := uint32(p.items[p.total-1-k])
			ni := nodeOfRow(p.first, r)
			operational[k] = p.logs[ni].At(int(r - p.first[ni]))
		}
		sort.Slice(operational, func(i, j int) bool { return operational[i].Time < operational[j].Time })
	}

	p.items = p.items[:n]
	views = p.group(hasInfo)
	if helpers > 1 {
		p.phase = phaseStop
		p.bar.wait()
	}
	return views, operational
}

// keyBits sets the item layout for keys that differ in the bits of varying
// and global row numbers below rows: the row number in the low rbits =
// bits.Len(rows) bits (at most 31 under checkArenaRows), and above it the
// key's varying bits packed together (compress), which keeps the keys'
// order because every other bit is the same in all of them. When the two
// need more than 64 bits, an item holds the low 64 - rbits packed bits:
// group re-fills the items with the higher ones once the passes are done
// with the low ones, and the sweep compares the rows' own keys.
func (p *partitioner) keyBits(varying uint64, rows int) {
	p.mask, p.rbits = varying, uint(bits.Len(uint(rows)))
	p.cbits = uint(bits.OnesCount64(varying))
	p.hold, p.base = min(p.cbits, 64-p.rbits), 0
}

// prefix is key k's part of an item: hold of its packed bits, from base up,
// above the row number.
func (p *partitioner) prefix(k uint64) int64 {
	return int64(compress(k, p.mask) >> p.base & (1<<p.hold - 1) << p.rbits)
}

// compress packs the bits of k that mask selects into the low bits, in
// order, a run of adjacent mask bits at a time.
func compress(k, mask uint64) (out uint64) {
	for at := 0; mask != 0; {
		from := bits.TrailingZeros64(mask)
		w := bits.TrailingZeros64(^(mask >> from))
		run := uint64(1)<<w - 1
		out |= k >> from & run << at
		at, mask = at+w, mask&^(run<<from)
	}
	return out
}

// packetKey is a packet's sort key, origin<<32|seq: its unsigned order is
// PacketID.Less.
func packetKey(origin NodeID, seq uint32) uint64 { return uint64(origin)<<32 | uint64(seq) }

// group is the body Partition and PendingStore.Retire share. Its input is
// p.items, one per row to lay out, in ascending global row order, under the
// layout keyBits set; it sorts them, cuts the views and spans, gathers the
// arena rows and, when hasInfo is set, fills the arena's Info table.
//
// The passes cover the compressed key bits only: the row numbers are
// already ascending and the sort is stable. So a campaign's keys sort in two
// or three passes, any input in at most six, and a sparse key space costs
// passes, never memory. items2 ends up spare; the sweep notes each row's
// gather index there, and the gathers overwrite it with the arena's time
// column. items becomes the link column once the sweep has cut the views.
func (p *partitioner) group(hasInfo bool) []*PacketView {
	n := len(p.items)
	p.items2 = sized(p.items2, n)
	p.split(n)
	for p.shift = 0; p.shift < p.cbits; p.shift += radixBits {
		if top := p.base + p.hold; p.shift+radixBits > top && top < p.cbits {
			// The pass needs bits the items do not hold. The ones below
			// shift are sorted and done with, so the items take the bits
			// from shift up instead.
			p.base = p.shift
			for j, it := range p.items {
				r := uint32(it) & (1<<p.rbits - 1)
				ni := nodeOfRow(p.first, r)
				b, i := p.logs[ni], r-p.first[ni]
				p.items[j] = p.prefix(packetKey(b.origin[i], b.seq[i])) | int64(r)
			}
		}
		p.each(phaseHist)
		p.each(phaseScatter)
		p.items, p.items2 = p.items2, p.items
	}

	views := p.sweep(n)
	nl := len(p.logs)
	p.typs, p.times, p.senders, p.receivers = sized(p.typs, nl), sized(p.times, nl), sized(p.senders, nl), sized(p.receivers, nl)
	for ni, b := range p.logs {
		p.typs[ni], p.times[ni], p.senders[ni], p.receivers[ni] = b.typ, b.time, b.sender, b.receiver
	}
	if hasInfo { // the arena's table is complete before any worker reads it
		for j, ix := range p.arena.time {
			putInfo(&p.arena.info, j, p.logs[ix>>32].info[int32(uint32(ix))])
		}
	}
	p.each(phaseGather)
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
		sh := p.shift - p.base + p.rbits
		for _, it := range p.items[s.lo:s.hi] {
			s.hist[digit(it, sh)]++
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

// count counts the packet-scoped rows of the share's global rows and notes
// where their keys differ from the first one's.
func (p *partitioner) count(s *share) {
	packets, varying, ref := 0, uint64(0), uint64(0)
	for ni := nodeOfRow(p.first, uint32(s.lo)); ni < len(p.logs) && int(p.first[ni]) < s.hi; ni++ {
		b := p.logs[ni]
		i0, i1 := p.clip(ni, s.lo, s.hi)
		for i := i0; i < i1; i++ {
			if b.typ[i].PacketScoped() {
				k := packetKey(b.origin[i], b.seq[i])
				if packets == 0 {
					ref = k
				}
				varying |= k ^ ref
				packets++
			}
		}
	}
	s.packets, s.varying, s.ref = packets, varying, ref
}

// scan writes the item of each packet-scoped row of the share's global
// rows, in node and log order from slot s.at on, and the row number of each
// operational row from the back of items, after the s.lo-s.at that come
// before the share. A key is compressed only when it differs from the
// previous row's.
func (p *partitioner) scan(s *share) {
	items := p.items
	n, nops := s.at, s.lo-s.at
	last, pre := uint64(0), p.prefix(0)
	for ni := nodeOfRow(p.first, uint32(s.lo)); ni < len(p.logs) && int(p.first[ni]) < s.hi; ni++ {
		b, base := p.logs[ni], int64(p.first[ni])
		i0, i1 := p.clip(ni, s.lo, s.hi)
		for i := i0; i < i1; i++ {
			if !b.typ[i].PacketScoped() {
				nops++
				items[p.total-nops] = base + int64(i)
				continue
			}
			if k := packetKey(b.origin[i], b.seq[i]); k != last {
				last, pre = k, p.prefix(k)
			}
			items[n] = pre | (base + int64(i))
			n++
		}
	}
}

// scatter moves helper w's share of items to their places by the current
// digit: after every item with a smaller digit, and after the items with the
// same digit in earlier shares.
func (p *partitioner) scatter(w int) {
	var next [radixSize]uint32 // next[d]: where the share's next item with digit d goes
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
	items2, sh := p.items2, p.shift-p.base+p.rbits
	for _, it := range p.items[s.lo:s.hi] {
		d := digit(it, sh)
		items2[next[d]] = it
		next[d]++
	}
}

// digit is item it's radix digit from bit sh up, read unsigned.
func digit(it int64, sh uint) uint64 { return uint64(it) >> sh & (radixSize - 1) }

// blockRows is how many global rows one entry of the node table covers.
const blockRows = 256

// sweep cuts a view at every key change and a span at every node change
// inside a view. Row numbers ascend inside a packet, so the node changes
// only when one passes the end of the current node's log. The first pass
// writes each sorted row's gather index, node index<<32 | row in that
// node's log, to items2, and notes where each span starts, and whether a
// view starts there, over the items it has read; the second makes the
// views and spans from those notes, reading each view's packet from its
// first row in the logs. The gathers then overwrite items with the arena's
// link column and items2, in place, with its time column.
func (p *partitioner) sweep(n int) []*PacketView {
	items, at, first := p.items, p.items2, p.first
	// blocks[b] is the node that holds global row b*blockRows, so a row's
	// node is found from its block's by stepping over the logs that begin
	// inside the block, mostly none: cheaper than a binary search, whose
	// probes mispredict.
	blocks := sized(p.blocks, (int(first[len(first)-1])+blockRows-1)/blockRows)
	for b := range blocks {
		blocks[b] = uint32(nodeOfRow(first, uint32(b*blockRows)))
	}
	p.blocks = blocks
	rb, wide := p.rbits, p.hold < p.cbits
	nviews, nspans := 0, 0
	var prev int64 // differs from the first item above the row bits
	if n > 0 {
		prev = ^items[0]
	}
	var prevKey uint64
	ni, lo, hi := 0, uint32(0), uint32(0) // the current node and its global rows: none yet
	for j, it := range items[:n] {
		r := uint32(it) & (1<<rb - 1)
		moved := r-lo >= hi-lo
		if moved {
			ni = int(blocks[r/blockRows])
			for r >= first[ni+1] {
				ni++
			}
			lo, hi = first[ni], first[ni+1]
		}
		i := r - lo
		newView := uint64(it^prev)>>rb != 0
		if wide { // the items hold only part of the key
			k := packetKey(p.logs[ni].origin[i], p.logs[ni].seq[i])
			newView = newView || k != prevKey
			prevKey = k
		}
		if newView || moved {
			items[nspans] = int64(j) << 1
			if newView {
				items[nspans] |= 1
				nviews++
			}
			nspans++
		}
		prev, at[j] = it, int64(ni)<<32|int64(i)
	}

	a := p.arena
	a.link, a.time, a.typ, a.info = items, at, sized(a.typ, n), nil
	p.items, p.items2 = nil, nil
	spans := sized(p.spans, nspans)
	structs := sized(p.structs, nviews)[:0]
	views := sized(p.views, nviews)[:0]
	var v *PacketView
	vs := 0 // the current view's first span
	for s, st := range items[:nspans] {
		j, end := int32(st>>1), int32(n)
		if s+1 < nspans {
			end = int32(items[s+1] >> 1)
		}
		ni, i := at[j]>>32, uint32(at[j])
		if st&1 != 0 {
			b := p.logs[ni]
			structs = append(structs, PacketView{Packet: PacketID{Origin: b.origin[i], Seq: b.seq[i]}, rows: a})
			v = &structs[len(structs)-1]
			views = append(views, v)
			vs = s
		}
		spans[s] = ViewSpan{Node: p.nodes[ni], Start: j, End: end}
		v.spans = spans[vs : s+1 : s+1]
	}
	p.spans, p.structs, p.views = spans, structs, views
	return views
}

// gatherRows fills the share's rows of the arena from their gather indices
// in the time column, which it overwrites last. The source columns are read
// one at a time: a loop reading one source column keeps many cache misses in
// flight, a loop reading four does not. So the link column takes two
// passes: the senders into its high halves, then the receivers into its low
// ones.
func (p *partitioner) gatherRows(s *share) {
	lo, hi, arena := s.lo, s.hi, p.arena
	at := arena.time[lo:hi]
	gather(arena.typ[lo:hi], p.typs, at)
	snd, rcv, l := p.senders, p.receivers, arena.link[lo:hi]
	for j, ix := range at {
		l[j] = link(snd[ix>>32][uint32(ix)], 0)
	}
	for j, ix := range at {
		l[j] |= int64(rcv[ix>>32][uint32(ix)])
	}
	gather(at, p.times, at)
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

// gather fills one arena column: dst[j] is the row at[j] indexes, node
// index<<32 | row, of source column src[node index]. dst may be at itself.
func gather[T any](dst []T, src [][]T, at []int64) {
	for j, ix := range at {
		dst[j] = src[ix>>32][uint32(ix)]
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
