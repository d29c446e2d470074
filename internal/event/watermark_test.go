package event

import (
	"reflect"
	"testing"
)

func TestWatermarksLowAndObserve(t *testing.T) {
	ps := NewPendingStore(0)
	if _, ok := ps.Low(); ok {
		t.Fatal("empty store reported a low watermark")
	}
	ps.Punctuate(2, 50)
	ps.Punctuate(1, 100)
	ps.Punctuate(1, 80) // regression is a no-op
	low, ok := ps.Low()
	if !ok || low != 50 {
		t.Fatalf("Low = %d,%v, want 50,true", low, ok)
	}
	ps.Punctuate(2, 300)
	if low, _ := ps.Low(); low != 100 {
		t.Fatalf("Low after advance = %d, want 100", low)
	}
	ps.Append(1, pev(1, 1, 1, Gen, 90)) // a row below the watermark does not lower it
	ps.Append(3, pev(3, 1, 1, Recv, 120))
	wms := map[NodeID]int64{}
	var nodes []NodeID
	ps.Watermarks(func(n NodeID, wm int64) { nodes, wms[n] = append(nodes, n), wm })
	if !reflect.DeepEqual(nodes, []NodeID{1, 2, 3}) || ps.Nodes() != 3 {
		t.Fatalf("nodes = %v (Nodes %d), want [1 2 3]", nodes, ps.Nodes())
	}
	if want := map[NodeID]int64{1: 100, 2: 300, 3: 120}; !reflect.DeepEqual(wms, want) {
		t.Fatalf("watermarks = %v, want %v", wms, want)
	}
	if low, _ := ps.Low(); low != 100 {
		t.Fatalf("Low after rows = %d, want 100", low)
	}
}

// pev builds a packet-scoped event at node n about packet (origin, seq).
func pev(n NodeID, origin NodeID, seq uint32, typ Type, time int64) Event {
	return Event{Node: n, Type: typ, Packet: PacketID{Origin: origin, Seq: seq}, Time: time}
}

func TestPendingStoreRetireMovesCompletePackets(t *testing.T) {
	ps := NewPendingStore(4)
	// Packet A (origin 3, seq 1): rows at nodes 3 and 1, max time 20.
	ps.Append(3, pev(3, 3, 1, Trans, 10))
	ps.Append(1, pev(1, 3, 1, Recv, 20))
	// Packet B (origin 3, seq 2): still in flight at time 90.
	ps.Append(3, pev(3, 3, 2, Trans, 90))
	// Packet C (origin 7, seq 5): complete early, different shard likely.
	ps.Append(7, pev(7, 7, 5, Gen, 5))
	if ps.Rows() != 4 || ps.Packets() != 3 {
		t.Fatalf("Rows,Packets = %d,%d, want 4,3", ps.Rows(), ps.Packets())
	}

	dst := NewCollection()
	n := ps.RetireComplete(50, dst)
	if n != 2 {
		t.Fatalf("retired %d packets, want 2 (A and C)", n)
	}
	if ps.Rows() != 1 || ps.Packets() != 1 {
		t.Fatalf("after retire Rows,Packets = %d,%d, want 1,1", ps.Rows(), ps.Packets())
	}
	if dst.TotalEvents() != 3 {
		t.Fatalf("window holds %d events, want 3", dst.TotalEvents())
	}
	// Node 3's window log holds only packet A's trans; B's row stayed.
	l3 := dst.Logs[3]
	if l3 == nil || l3.Len() != 1 || l3.At(0).Packet != (PacketID{Origin: 3, Seq: 1}) {
		t.Fatalf("node 3 window log wrong: %+v", l3)
	}

	// B retires once the cutoff passes it; same collection reused.
	if n := ps.RetireComplete(100, dst); n != 1 {
		t.Fatalf("second retire = %d, want 1", n)
	}
	if ps.Rows() != 0 || ps.Packets() != 0 {
		t.Fatalf("store not empty after full retire: rows=%d pkts=%d", ps.Rows(), ps.Packets())
	}
}

// TestPendingStoreRetirePreservesPerPacketOrder feeds interleaved rows about
// two same-shard packets at one node and checks each packet's rows come out
// in log order even though compaction rewrites the batch.
func TestPendingStoreRetirePreservesPerPacketOrder(t *testing.T) {
	ps := NewPendingStore(1) // one shard: both packets share storage
	a, b := PacketID{Origin: 2, Seq: 1}, PacketID{Origin: 2, Seq: 2}
	seqTypes := []Type{Trans, Trans, Recv, Recv} // a, b, a, b below
	// Node 9 logs a, b, a, b with ascending times.
	for i, id := range []PacketID{a, b, a, b} {
		ps.Append(9, Event{Node: 9, Type: seqTypes[i], Packet: id, Time: int64(10 * (i + 1))})
	}
	dst := NewCollection()
	// Retire only packet a (max time 30 < 35; b's max is 40).
	if n := ps.RetireComplete(35, dst); n != 1 {
		t.Fatalf("retired %d, want 1", n)
	}
	got := dst.Logs[9].Events()
	if len(got) != 2 || got[0].Type != Trans || got[1].Type != Recv || got[0].Time != 10 || got[1].Time != 30 {
		t.Fatalf("packet a's rows out of order: %+v", got)
	}
	// The surviving rows compacted in place, still in order.
	dst2 := NewCollection()
	if n := ps.RetireComplete(1000, dst2); n != 1 {
		t.Fatalf("second retire = %d, want 1", n)
	}
	got = dst2.Logs[9].Events()
	if len(got) != 2 || got[0].Time != 20 || got[1].Time != 40 {
		t.Fatalf("packet b's rows out of order after compaction: %+v", got)
	}
}

// TestPendingStoreRetireInfoCompaction checks the cold Info side table
// survives hole-sliding compaction: surviving rows keep their strings,
// retired rows carry theirs into the window.
func TestPendingStoreRetireInfoCompaction(t *testing.T) {
	ps := NewPendingStore(1)
	a, b := PacketID{Origin: 4, Seq: 1}, PacketID{Origin: 4, Seq: 2}
	ps.Append(5, Event{Node: 5, Type: Trans, Packet: a, Time: 10, Info: "early"})
	ps.Append(5, Event{Node: 5, Type: Trans, Packet: b, Time: 100, Info: "late"})
	ps.Append(5, Event{Node: 5, Type: Recv, Packet: b, Time: 110})
	dst := NewCollection()
	if n := ps.RetireComplete(50, dst); n != 1 {
		t.Fatalf("retired %d, want 1", n)
	}
	if got := dst.Logs[5].At(0).Info; got != "early" {
		t.Fatalf("retired row Info = %q, want %q", got, "early")
	}
	// Survivor slid from row 1 to row 0 and kept its Info; row 1's old
	// entry must not resurface under a future append.
	b0 := &ps.logOf(5).b
	if got := b0.At(0).Info; got != "late" {
		t.Fatalf("compacted row 0 Info = %q, want %q", got, "late")
	}
	if got := b0.At(1).Info; got != "" {
		t.Fatalf("compacted row 1 Info = %q, want empty", got)
	}
}
