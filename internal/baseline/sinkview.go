// Package baseline implements the comparison approaches the paper positions
// REFILL against:
//
//   - the sink view (Figure 4): infer losses and approximate loss times from
//     delivered data alone, attributing each loss to its source node;
//   - naive protocol semantics (Section III): "trans without ack means the
//     packet was lost at that node" — wrong under lossy logs;
//   - clock merge: order all per-node events by their local timestamps and
//     classify from the last event — wrong under unsynchronized clocks;
//   - time-domain correlation (Section V-D2): attribute each loss to the
//     dominant anomaly logged in the same time window — masks minority
//     causes;
//   - Wit-style mergeability (Section VI): Wit aligns logs via commonly
//     recorded events; with purely local logs there are none.
package baseline

import (
	"sort"

	"repro/internal/event"
)

// LostPacket is one loss inferred by the sink view, with the paper's
// sequence-gap time approximation: "we calculate the time for the received
// packet right before the lost packet … since packets are sent periodically
// we can derive the sent time of lost packets".
type LostPacket struct {
	Packet     event.PacketID
	ApproxTime int64
}

// SinkView infers lost packets per source from the base-station server's
// record of delivered packets. Packets an origin generated after its last
// delivered sequence number are invisible to this view (nothing arrived to
// betray them) — an inherent limit the paper shares.
func SinkView(c *event.Collection, period int64) []LostPacket {
	srv, ok := c.Logs[event.Server]
	if !ok {
		return nil
	}
	type seqTime struct {
		seq uint32
		t   int64
	}
	perOrigin := make(map[event.NodeID][]seqTime)
	b := srv.Batch()
	for i := 0; i < b.Len(); i++ {
		if b.Type(i) != event.ServerRecv {
			continue
		}
		pkt := b.Packet(i)
		perOrigin[pkt.Origin] = append(perOrigin[pkt.Origin],
			seqTime{seq: pkt.Seq, t: b.Time(i)})
	}
	origins := make([]event.NodeID, 0, len(perOrigin))
	for o := range perOrigin {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

	var lost []LostPacket
	for _, origin := range origins {
		got := perOrigin[origin]
		sort.Slice(got, func(i, j int) bool { return got[i].seq < got[j].seq })
		seen := make(map[uint32]int64, len(got))
		var minSeq, maxSeq uint32
		for i, st := range got {
			seen[st.seq] = st.t
			if i == 0 || st.seq < minSeq {
				minSeq = st.seq
			}
			if st.seq > maxSeq {
				maxSeq = st.seq
			}
		}
		// Sequence numbers start at 1 in this system; gaps before the
		// first delivery are approximated backwards from it.
		prevSeq, prevT := uint32(0), int64(0)
		havePrev := false
		for seq := uint32(1); seq <= maxSeq; seq++ {
			if t, ok := seen[seq]; ok {
				prevSeq, prevT, havePrev = seq, t, true
				continue
			}
			var approx int64
			if havePrev {
				approx = prevT + int64(seq-prevSeq)*period
			} else {
				// Lost before anything arrived: extrapolate back
				// from the first delivery.
				approx = got[0].t - int64(minSeq-seq)*period
				if approx < 0 {
					approx = 0
				}
			}
			lost = append(lost, LostPacket{
				Packet:     event.PacketID{Origin: origin, Seq: seq},
				ApproxTime: approx,
			})
		}
	}
	return lost
}
