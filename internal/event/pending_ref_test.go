package event

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The pending store against an oracle. A schedule is a byte program: each
// step reads an opcode and its operands off the front and is applied to a
// PendingStore and to refStore — a flat slice of the buffered events in
// arrival order, with every packet's last-seen time recomputed from scratch
// on each call. After every step the two must agree on everything the store
// promises its callers.

const (
	refNodes   = 6
	refPackets = 50
	// refProgram caps a schedule's length: every step compares the whole
	// store, so an unbounded fuzz input is quadratic.
	refProgram = 2048
)

// refStore is the naive pending store: no index, no compaction.
type refStore struct{ evs []Event }

// lastSeen recomputes every buffered packet's highest timestamp.
func (r *refStore) lastSeen() map[PacketID]int64 {
	last := make(map[PacketID]int64)
	for _, e := range r.evs {
		if t, ok := last[e.Packet]; !ok || e.Time > t {
			last[e.Packet] = e.Time
		}
	}
	return last
}

// retire removes the packets last seen below cutoff (all of them when all is
// set) and returns their rows in arrival order plus the packet count.
func (r *refStore) retire(cutoff int64, all bool) (out []Event, packets int) {
	last := r.lastSeen()
	var keep []Event
	for _, e := range r.evs {
		if all || last[e.Packet] < cutoff {
			out = append(out, e)
		} else {
			keep = append(keep, e)
		}
	}
	for _, t := range last {
		if all || t < cutoff {
			packets++
		}
	}
	r.evs = keep
	return out, packets
}

// canonical orders events by (node, packet), stably — what is left is each
// packet's row order at each node, the one order the store must preserve (the
// interleave of different packets inside a node's log is free).
func canonical(evs []Event) []Event {
	slices.SortStableFunc(evs, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Packet.Origin, b.Packet.Origin), cmp.Compare(a.Packet.Seq, b.Packet.Seq))
	})
	return evs
}

// collected flattens a collection's logs into canonical order.
func collected(c *Collection) []Event {
	var out []Event
	for _, l := range c.Logs {
		out = append(out, l.Events()...)
	}
	return canonical(out)
}

// perNode returns each non-empty log's events exactly as stored.
func perNode(c *Collection) map[NodeID][]Event {
	m := make(map[NodeID][]Event)
	for n, l := range c.Logs {
		if l.Len() > 0 {
			m[n] = l.Events()
		}
	}
	return m
}

func pendingOf(ps *PendingStore) *Collection {
	c := NewCollection()
	ps.AppendPendingTo(c)
	return c
}

// scheduleStats counts what a schedule exercised, so the checked-in seeds can
// be shown not to be vacuous: retires that complete nothing, retires that
// leave survivors, a RetireAll that carries out the MaxInt64 packet, appends
// served by the node's previous-packet cache, a retired slot reused for a
// different packet, a packet appended again after it retired, a retire into
// a window smaller than the one before, a retiring packet split on three or
// more nodes by a survivor between two of its rows in each, and a retire
// that leaves Info on both sides.
type scheduleStats struct {
	idle, partial, maxDrained, cacheHits, recycled, reappeared, shrank int
	interleaved, infoSplit                                             int
}

func (st *scheduleStats) add(o scheduleStats) {
	st.idle += o.idle
	st.partial += o.partial
	st.maxDrained += o.maxDrained
	st.cacheHits += o.cacheHits
	st.recycled += o.recycled
	st.reappeared += o.reappeared
	st.shrank += o.shrank
	st.interleaved += o.interleaved
	st.infoSplit += o.infoSplit
}

// runPendingSchedule interprets prog against both stores and fails on the
// first disagreement.
func runPendingSchedule(t *testing.T, prog []byte) (st scheduleStats) {
	t.Helper()
	prog = prog[:min(len(prog), refProgram)]
	ps := NewPendingStore(0)
	ref := &refStore{}
	window := NewCollection()
	clock := int64(1000)
	prevPacket := make(map[NodeID]int)    // the packet index of each node's last row
	slotOwner := make(map[int32]PacketID) // the packet each slot last served
	retired := make(map[PacketID]bool)    // packets retired and not appended since
	lastRows := 0                         // rows the last non-empty retire moved
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	for step := 0; len(prog) > 0; step++ {
		op := next()
		switch {
		case op%16 < 12: // append one row: a random packet, or (9–11) the node's previous one
			n := NodeID(next()%refNodes + 1)
			p, repeat := prevPacket[n]
			if op%16 < 9 || !repeat {
				p = int(next()) % refPackets
			}
			prevPacket[n] = p
			a := next()
			clock += int64(a % 8)
			e := Event{Node: n, Type: Type(a%3 + 1), Sender: n, Receiver: NodeID(a%5 + 1),
				Packet: PacketID{Origin: NodeID(p%7 + 1), Seq: uint32(p / 7)}, Time: clock - int64(a>>4)}
			if p == refPackets-1 {
				e.Time = math.MaxInt64 // no strict cutoff ever clears it
			}
			if a%5 == 0 {
				e.Info = fmt.Sprintf("info-%d", step)
			}
			if l := ps.logOf(n); l != nil && l.prev >= 0 && ps.slots[l.prev].id == e.Packet {
				st.cacheHits++
			}
			if ps.slotOf(e.Packet) < 0 && retired[e.Packet] {
				st.reappeared++
				delete(retired, e.Packet)
			}
			ps.Append(n, e)
			ref.evs = append(ref.evs, e)
			s := ps.slotOf(e.Packet)
			if owner, ok := slotOwner[s]; ok && owner != e.Packet {
				st.recycled++
			}
			slotOwner[s] = e.Packet
		default: // retire: a cutoff around the clock, or everything
			all := op%16 == 15
			cutoff := clock - 40 + int64(next()%64)
			before := perNode(pendingOf(ps))
			window.ResetLogs()
			var got int
			if all {
				got = ps.RetireAll(window)
			} else {
				got = ps.RetireComplete(cutoff, window)
			}
			wantRows, want := ref.retire(cutoff, all)
			if got != want {
				t.Fatalf("step %d: retired %d packets, reference %d", step, got, want)
			}
			// The wrappers retire through ps.spare, one Window recycled
			// across every step: a stale row, span or Info column left
			// from a larger window shows up against a smaller one.
			sameViews(t, step, ps.spare.p.views, wantRows)
			if g, w := collected(window), canonical(slices.Clone(wantRows)); !slices.Equal(g, w) {
				t.Fatalf("step %d: retired rows differ\n got %+v\nwant %+v", step, g, w)
			}
			if len(wantRows) > 0 {
				if len(wantRows) < lastRows {
					st.shrank++
				}
				lastRows = len(wantRows)
			}
			for _, e := range wantRows {
				retired[e.Packet] = true
			}
			if interleavedOn(before, retired) >= 3 {
				st.interleaved++
			}
			if slices.ContainsFunc(wantRows, hasInfo) && slices.ContainsFunc(ref.evs, hasInfo) {
				st.infoSplit++
			}
			switch {
			case got == 0 && len(before) > 0:
				st.idle++
				if after := perNode(pendingOf(ps)); !reflect.DeepEqual(before, after) {
					t.Fatalf("step %d: a retire that completed nothing changed the store\nbefore %v\n after %v", step, before, after)
				}
			case got > 0 && ps.Rows() > 0:
				st.partial++
			case all && slices.ContainsFunc(wantRows, func(e Event) bool { return e.Time == math.MaxInt64 }):
				st.maxDrained++
			}
		}
		if ps.Rows() != len(ref.evs) {
			t.Fatalf("step %d: Rows = %d, reference %d", step, ps.Rows(), len(ref.evs))
		}
		if g, w := ps.Packets(), len(ref.lastSeen()); g != w {
			t.Fatalf("step %d: Packets = %d, reference %d", step, g, w)
		}
		if g, w := collected(pendingOf(ps)), canonical(slices.Clone(ref.evs)); !slices.Equal(g, w) {
			t.Fatalf("step %d: survivors differ\n got %+v\nwant %+v", step, g, w)
		}
		checkSlots(t, step, ps)
	}
	return st
}

func hasInfo(e Event) bool { return e.Info != "" }

// interleavedOn returns the most nodes on which one retiring packet has a
// surviving row between two of its own rows: logs holds each node's rows
// before the retire, and retiring marks the packets it moves out.
func interleavedOn(logs map[NodeID][]Event, retiring map[PacketID]bool) int {
	nodes := make(map[PacketID]int)
	for _, evs := range logs {
		split := make(map[PacketID]bool)
		open := make(map[PacketID]bool) // seen a row, then a survivor
		for _, e := range evs {
			if !retiring[e.Packet] {
				for p := range open {
					open[p] = true
				}
				continue
			}
			if survivor, seen := open[e.Packet]; seen && survivor {
				split[e.Packet] = true
			}
			open[e.Packet] = false
		}
		for p := range split {
			nodes[p]++
		}
	}
	most := 0
	for _, k := range nodes {
		most = max(most, k)
	}
	return most
}

// sameViews fails unless got are exactly Partition's views over the retired
// rows (given in arrival order): the same packets in the same order, the same
// spans, and an arena of the same length whose columns and Info table
// are equal row for row. Node and packet are not stored, so each span's
// events, as EventAt gives them, are checked against the retired rows
// (checkSpanInvariants).
func sameViews(t *testing.T, step int, got []*PacketView, retired []Event) {
	t.Helper()
	c := NewCollection()
	for _, e := range retired {
		c.Add(e)
	}
	want, _ := Partition(c)
	if len(got) != len(want) {
		t.Fatalf("step %d: %d views, Partition %d", step, len(got), len(want))
	}
	if len(got) == 0 {
		return
	}
	for k, w := range want {
		if g := got[k]; g.Packet != w.Packet || !slices.Equal(g.Spans(), w.Spans()) {
			t.Fatalf("step %d: view %d is %v %v, Partition %v %v", step, k, g.Packet, g.Spans(), w.Packet, w.Spans())
		}
	}
	if g, w := got[0].rows.len(), want[0].rows.len(); g != w {
		t.Fatalf("step %d: the window's arena holds %d rows, Partition's %d", step, g, w)
	}
	if col := sameArena(got[0].rows, want[0].rows); col != "" {
		t.Fatalf("step %d: arena column %s differs from Partition's", step, col)
	}
	checkSpanInvariants(t, c, got)
}

// slotOf returns id's slot in the intern table, or -1.
func (ps *PendingStore) slotOf(id PacketID) int32 {
	if len(ps.ids.at) == 0 {
		return -1
	}
	return ps.ids.at[ps.ids.probe(ps.slots, id)] - 1
}

// checkSlots asserts the slot bookkeeping behind the store's answers: the
// intern table and the live slots name each other, every free slot is dead and
// listed once, and every buffered row's slot holds the row's packet.
func checkSlots(t *testing.T, step int, ps *PendingStore) {
	t.Helper()
	live := 0
	for s, sl := range ps.slots {
		if sl.live {
			live++
			if got := ps.slotOf(sl.id); got != int32(s) {
				t.Fatalf("step %d: live slot %d holds %v, which the intern table puts at %d", step, s, sl.id, got)
			}
		}
	}
	if live != ps.ids.n || live+len(ps.free) != len(ps.slots) {
		t.Fatalf("step %d: %d live slots, %d interned packets, %d free of %d", step, live, ps.ids.n, len(ps.free), len(ps.slots))
	}
	seen := make(map[int32]bool)
	for _, s := range ps.free {
		if ps.slots[s].live || seen[s] {
			t.Fatalf("step %d: free slot %d is live or listed twice", step, s)
		}
		seen[s] = true
	}
	for _, l := range ps.logs {
		n := l.node
		if len(l.slot) != l.b.Len() {
			t.Fatalf("step %d: node %v has %d slots for %d rows", step, n, len(l.slot), l.b.Len())
		}
		for i, s := range l.slot {
			if ps.slots[s].id != l.b.Packet(i) || !ps.slots[s].live {
				t.Fatalf("step %d: node %v row %d (packet %v) points at slot %d (%+v)", step, n, i, l.b.Packet(i), s, ps.slots[s])
			}
		}
	}
}

// pendingSeeds are the schedules both the test and the fuzz corpus start
// from: random programs of a few hundred steps, and two written by hand for
// the retire's split between the rows it lays out and the rows it keeps.
func pendingSeeds() [][]byte {
	var seeds [][]byte
	for s := int64(1); s <= 24; s++ {
		rng := rand.New(rand.NewSource(s))
		prog := make([]byte, 200+rng.Intn(1200))
		rng.Read(prog)
		seeds = append(seeds, prog)
	}
	return append(seeds, interleavedSeed(), infoSeed())
}

// Hand-written schedule steps. An append's operand a moves the clock by a%8
// and stamps the row a>>4 before it, with Info when a%5 == 0; packet p is
// origin p%7+1, seq p/7. A retire's cutoff is the clock - 40 + c.
func appendStep(node, p, a byte) []byte { return []byte{0, node, p, a} }
func retireStep(c byte) []byte          { return []byte{12, c} }

var retireAllStep = []byte{15, 0}

// interleavedSeed puts packet 1's rows on nodes 1–3 with a row of packet 2
// after each, so every node's log reads 1, 2, 1, 2. Packet 1 is last seen at
// 1034, packet 2 at 1048, and the cutoff 1038 retires packet 1 alone: its
// view has three spans, each cut around a survivor.
func interleavedSeed() []byte {
	var prog []byte
	for node := byte(0); node < 3; node++ {
		for range 2 {
			prog = append(prog, appendStep(node, 1, 0x71)...) // +1, stamped 7 early
			prog = append(prog, appendStep(node, 2, 0x07)...) // +7
		}
	}
	prog = append(prog, retireStep(30)...)
	return append(prog, retireAllStep...)
}

// infoSeed gives every row Info over two advances. Nodes 1–3 log packet 1
// (last seen 1007) then packet 2 (1021), and the cutoff 1011 retires packet
// 1 while packet 2's rows slide down with their Info. Then packet 3 follows
// on each node (1042), and the cutoff 1032 retires packet 2 from its moved
// rows while packet 3 keeps its Info.
func infoSeed() []byte {
	var prog []byte
	for node := byte(0); node < 3; node++ {
		prog = append(prog, appendStep(node, 1, 0x78)...) // +0, stamped 7 early
		prog = append(prog, appendStep(node, 2, 0x0F)...) // +7
	}
	prog = append(prog, retireStep(30)...)
	for node := byte(0); node < 3; node++ {
		prog = append(prog, appendStep(node, 3, 0x0F)...)
	}
	prog = append(prog, retireStep(30)...)
	return append(prog, retireAllStep...)
}

func TestPendingStoreMatchesReference(t *testing.T) {
	var total scheduleStats
	for _, prog := range pendingSeeds() {
		total.add(runPendingSchedule(t, prog))
	}
	if total.idle == 0 || total.partial == 0 || total.maxDrained == 0 ||
		total.cacheHits == 0 || total.recycled == 0 || total.reappeared == 0 || total.shrank == 0 ||
		total.interleaved == 0 || total.infoSplit < 2 {
		t.Fatalf("seed schedules are vacuous: %+v (want every case scheduleStats names)", total)
	}
	t.Logf("seed schedules reach %+v", total)
}

func FuzzPendingStore(f *testing.F) {
	for _, prog := range pendingSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runPendingSchedule(t, prog) })
}
