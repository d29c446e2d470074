package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/event/snapfile"
)

// Checkpoint format
//
// A session checkpoint is a snapfile container holding everything a
// restarted process needs to continue as if it never stopped: lifecycle
// counters, per-node watermarks, the outcomes accumulated from
// already-finalized windows, the session-level operational events, and the
// pending (not yet finalizable) packet rows, and the finalized packets'
// inferred-event and anomaly counts. Flows are deliberately NOT
// checkpointable — a RetainFlows session refuses to checkpoint rather than
// silently dropping its flows. Every report read is a fold of the outcomes,
// so nothing besides them is stored for the report.
//
//	section 1   meta: version i64 | sink u32 | reserved u32 | horizon i64 |
//	            watermark i64 | epoch i64 | ingested i64 | finalized i64
//	section 2   watermarks: nodes * {node u32, reserved u32, low i64}
//	section 3   outcomes in packet-ID order: n * {origin u32, seq u32,
//	            position u32, toward u32, lossTime i64, cause u8, flags u8,
//	            reserved u16}
//	section 5   counters: inferred events i64 | anomalies i64
//	base 32     operational events (event collection section family)
//	base 64     pending packet rows, per node in log order (see
//	            event.PendingStore.AppendPendingTo)
//
// Sink and horizon are echoed: Resume refuses a config that differs. The
// window start (where daily bins count from) and worker count follow the
// resumer. finalized is the outcome count; Resume reads it off section 3
// instead. Files from earlier versions also hold section 4, the flat
// encoding of a report aggregate the session no longer keeps: Verify checks
// its CRC with the rest, and Resume ignores it.
// Files from before the counters section resume with zero counters: their
// sessions' finalized packets count toward neither Stats nor Drain's Result.
//
// Resume restores the watermarks with PendingStore.Punctuate, then rebuilds
// the rest of the store by replaying the operational and pending rows
// through PendingStore.AppendRows; a row cannot raise a restored watermark,
// since every row was at or below its node's watermark when written. Files
// written while the store was sharded by origin hold each node's rows shard
// by shard instead; they resume all the same, because each packet's rows
// are still in log order at every node and that is all reconstruction
// reads. Files written before the session kept its outcomes in packet-ID
// order hold section 3 in finalization order instead; Resume sorts the
// outcomes once, which is a no-op on a current file. A resumed session's
// Drain is then byte-identical to an uninterrupted session's under the
// resuming config (and, transitively, to batch analysis): outcomes are in
// packet order, and every report read is a fold of them.
// snapshot_equiv_test.go at the repo root pins this across a crash at every
// checkpoint epoch.

const (
	ckVersion = 1

	ckSecMeta       = 1
	ckSecWatermarks = 2
	ckSecOutcomes   = 3
	ckSecCounters   = 5 // 4 held a report aggregate, which files still carry from earlier versions
	ckOpsBase       = 2 * event.SectionStride
	ckPendBase      = 4 * event.SectionStride

	ckMetaSize    = 56
	ckWmEntrySize = 16
	ckOutcomeSize = 28
	ckCounterSize = 16

	outcomeFlagTimeValid = 1 << 0
	outcomeFlagLoop      = 1 << 1
)

// ErrCheckpointFlows is returned by WriteCheckpoint on a RetainFlows
// session: flows are not serialized, and dropping them silently would make
// the resumed Drain lie.
var ErrCheckpointFlows = errors.New("ingest: cannot checkpoint a RetainFlows session (flows are not serializable)")

// WriteCheckpoint atomically persists the session's full resumable state to
// path (snapfile.WriteFile). The session stays usable; the write
// holds the session lock, so it serializes against Append/Advance like any
// other call. Checkpointing a drained session returns ErrDrained — restart
// a finished campaign from its outputs, not a checkpoint.
func (s *Session) WriteCheckpoint(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return ErrDrained
	}
	if s.cfg.RetainFlows {
		return ErrCheckpointFlows
	}
	if err := snapfile.WriteFile(path, ".refill-ckpt-*", s.appendCheckpoint); err != nil {
		return fmt.Errorf("ingest: write checkpoint %s: %w", path, err)
	}
	return nil
}

// appendCheckpoint writes the checkpoint's sections. Caller holds s.mu.
func (s *Session) appendCheckpoint(w *snapfile.Writer) error {
	s.acc.Settle()
	var meta [ckMetaSize]byte
	binary.LittleEndian.PutUint64(meta[0:8], ckVersion)
	binary.LittleEndian.PutUint32(meta[8:12], uint32(s.cfg.Diagnosis.Sink))
	binary.LittleEndian.PutUint64(meta[16:24], uint64(s.cfg.Horizon))
	binary.LittleEndian.PutUint64(meta[24:32], uint64(s.watermark))
	binary.LittleEndian.PutUint64(meta[32:40], uint64(s.epoch))
	binary.LittleEndian.PutUint64(meta[40:48], uint64(s.ingested))
	binary.LittleEndian.PutUint64(meta[48:56], uint64(len(s.acc.Outcomes)))
	w.Append(ckSecMeta, meta[:])

	var counters [ckCounterSize]byte
	binary.LittleEndian.PutUint64(counters[0:8], uint64(s.acc.InferredEvents))
	binary.LittleEndian.PutUint64(counters[8:16], uint64(s.acc.Anomalies))
	w.Append(ckSecCounters, counters[:])

	w.Begin(ckSecWatermarks)
	s.store.Watermarks(func(n event.NodeID, low int64) {
		var e [ckWmEntrySize]byte
		binary.LittleEndian.PutUint32(e[0:4], uint32(n))
		binary.LittleEndian.PutUint64(e[8:16], uint64(low))
		w.Write(e[:])
	})
	w.End()

	w.Begin(ckSecOutcomes)
	for _, o := range s.acc.Outcomes {
		var e [ckOutcomeSize]byte
		binary.LittleEndian.PutUint32(e[0:4], uint32(o.Packet.Origin))
		binary.LittleEndian.PutUint32(e[4:8], o.Packet.Seq)
		binary.LittleEndian.PutUint32(e[8:12], uint32(o.Position))
		binary.LittleEndian.PutUint32(e[12:16], uint32(o.Toward))
		binary.LittleEndian.PutUint64(e[16:24], uint64(o.LossTime))
		e[24] = byte(o.Cause)
		if o.TimeValid {
			e[25] |= outcomeFlagTimeValid
		}
		if o.Loop {
			e[25] |= outcomeFlagLoop
		}
		w.Write(e[:])
	}
	w.End()

	if err := event.AppendCollectionSections(w, ckOpsBase, s.store.Operational()); err != nil {
		return err
	}
	pending := event.NewCollection()
	s.store.AppendPendingTo(pending)
	return event.AppendCollectionSections(w, ckPendBase, pending)
}

// Resume rebuilds a session from a checkpoint written by WriteCheckpoint.
// cfg must match the checkpointed session's identity-critical settings (sink
// and horizon are verified against the file); the worker count may differ —
// it changes scheduling, never output — and so may the window start, which
// only the report's daily bins read. Every section's data CRC is verified
// before anything is read: a checkpoint is outside input (whatever file a
// restart finds on disk) and is read in full here anyway. The returned
// session continues exactly where the checkpointed one stopped: appending the
// same remaining fragments and draining yields bytes identical to a session
// that never restarted.
func Resume(cfg Config, path string) (*Session, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	f, err := snapfile.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("ingest: checkpoint %s: %w", path, err)
	}

	meta, ok := f.Section(ckSecMeta)
	if !ok || len(meta) != ckMetaSize {
		return nil, fmt.Errorf("ingest: checkpoint %s has no valid meta section", path)
	}
	if v := binary.LittleEndian.Uint64(meta[0:8]); v != ckVersion {
		return nil, fmt.Errorf("ingest: unsupported checkpoint version %d", v)
	}
	if sink := event.NodeID(binary.LittleEndian.Uint32(meta[8:12])); sink != cfg.Diagnosis.Sink {
		return nil, fmt.Errorf("ingest: checkpoint was written for sink %v, config says %v", sink, cfg.Diagnosis.Sink)
	}
	if h := int64(binary.LittleEndian.Uint64(meta[16:24])); h != cfg.Horizon {
		return nil, fmt.Errorf("ingest: checkpoint was written with horizon %d, config says %d", h, cfg.Horizon)
	}
	s.epoch = int(binary.LittleEndian.Uint64(meta[32:40]))
	if s.epoch > 0 { // else keep math.MinInt64; older code stored 0, which stalls clocks below zero
		s.watermark = int64(binary.LittleEndian.Uint64(meta[24:32]))
	}
	s.ingested = int(binary.LittleEndian.Uint64(meta[40:48]))

	if counters, ok := f.Section(ckSecCounters); ok { // absent in older files: zero counters
		if len(counters) != ckCounterSize {
			return nil, fmt.Errorf("ingest: checkpoint counters section invalid (%d bytes)", len(counters))
		}
		s.acc.InferredEvents = int(binary.LittleEndian.Uint64(counters[0:8]))
		s.acc.Anomalies = int(binary.LittleEndian.Uint64(counters[8:16]))
	}

	wms, ok := f.Section(ckSecWatermarks)
	if !ok || len(wms)%ckWmEntrySize != 0 {
		return nil, fmt.Errorf("ingest: checkpoint watermark section invalid (%d bytes)", len(wms))
	}
	for off := 0; off < len(wms); off += ckWmEntrySize {
		n := event.NodeID(binary.LittleEndian.Uint32(wms[off:]))
		low := int64(binary.LittleEndian.Uint64(wms[off+8:]))
		s.store.Punctuate(n, low)
	}

	outs, ok := f.Section(ckSecOutcomes)
	if !ok || len(outs)%ckOutcomeSize != 0 {
		return nil, fmt.Errorf("ingest: checkpoint outcome section invalid (%d bytes)", len(outs))
	}
	if n := len(outs) / ckOutcomeSize; n > 0 {
		s.acc.Outcomes = make([]diagnosis.Outcome, 0, n)
		for off := 0; off < len(outs); off += ckOutcomeSize {
			e := outs[off:]
			cause := e[24]
			if int(cause) >= len(diagnosis.Causes()) {
				return nil, fmt.Errorf("ingest: checkpoint outcome carries cause %d", cause)
			}
			s.acc.Outcomes = append(s.acc.Outcomes, diagnosis.Outcome{
				Packet: event.PacketID{
					Origin: event.NodeID(binary.LittleEndian.Uint32(e[0:4])),
					Seq:    binary.LittleEndian.Uint32(e[4:8]),
				},
				Position:  event.NodeID(binary.LittleEndian.Uint32(e[8:12])),
				Toward:    event.NodeID(binary.LittleEndian.Uint32(e[12:16])),
				LossTime:  int64(binary.LittleEndian.Uint64(e[16:24])),
				Cause:     diagnosis.Cause(cause),
				TimeValid: e[25]&outcomeFlagTimeValid != 0,
				Loop:      e[25]&outcomeFlagLoop != 0,
			})
		}
		sort.SliceStable(s.acc.Outcomes, func(i, j int) bool { return s.acc.Outcomes[i].Packet.Less(s.acc.Outcomes[j].Packet) })
	}

	for _, base := range []uint32{ckOpsBase, ckPendBase} {
		if err := s.restore(f, base); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restore replays the collection section family at base through the pending
// store's AppendRows, per node in log order. The mapped collection and its
// storage die with f, so each log is cloned out of it first, Info included.
func (s *Session) restore(f *snapfile.Snapshot, base uint32) error {
	c, err := event.CollectionFromSections(f, base)
	if err != nil {
		return err
	}
	for _, n := range c.Nodes() {
		b := c.Logs[n].Batch().Clone()
		s.store.AppendRows(n, &b, 0, b.Len())
	}
	return nil
}
