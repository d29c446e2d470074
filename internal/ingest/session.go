// Package ingest implements the resident REFILL session: a long-lived
// analyzer that accepts per-node log fragments incrementally, finalizes
// packets as the collection-wide watermark advances past them, folds each
// retired window through the fused reconstruction driver, and serves
// live report snapshots — all under memory bounded by the in-flight packet
// population rather than the total volume ever ingested.
//
// # Lifecycle
//
// Append feeds one node's next log fragment (fragments must arrive in log
// order, so each node's local timestamps are nondecreasing across its
// fragments — the same append-only assumption the batch pipeline makes about
// whole logs). Punctuate(n, t) says node n has nothing more below t without
// adding a row. Advance(w) moves the session watermark toward w, clamped to
// the minimum watermark over every node seen so far, and finalizes each
// packet whose rows are provably complete: no node can append a row below
// the effective watermark ew, and any two rows about one packet are stamped
// within Config.Horizon of each other, so a packet last seen before
// ew − Horizon can never gain another row. Finalized packets are
// reconstructed, classified against the outage schedule known so far, their
// outcomes merged into the accumulated ones in packet-ID order, and their
// rows evicted from the pending store.
// Drain finalizes everything still pending and returns the completed Result
// and Report.
//
// A live service and a mapped snapshot are both sources of this one loop:
// core.Analyzer.AnalyzeSnapshot feeds it one residency window at a time and
// punctuates every node at the window's cut.
//
// # Equivalence
//
// A drained session is byte-identical to batch Analyze over the same
// collection, whatever the fragment and watermark schedule: per-packet
// reconstruction depends only on the packet's own per-node rows in log order
// (which retirement preserves), outage decisions for a packet finalized at
// watermark ew match the final schedule's because every operational event
// below ew has arrived and a still-open outage decides the packet's loss
// time alike whether it closes later or not (holdLocked), and every window's
// outcomes and flows are merged into the accumulation in batch packet-ID
// order — and a report is nothing but its outcomes.
// session_equiv_test.go at the repo root pins this.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
)

// ErrDrained is returned by mutating calls after Drain.
var ErrDrained = errors.New("ingest: session already drained")

// Config configures a Session.
type Config struct {
	// Engine is the reconstruction engine (required).
	Engine *engine.Engine
	// Diagnosis is the report-level configuration: sink (required), the
	// campaign end bounding a trailing open outage at drain, and the window
	// start daily bins count from.
	Diagnosis diagnosis.Config
	// Workers is the per-window reconstruction fan-out. The session is a
	// throughput path, so 0 (and any negative value) selects all cores;
	// n > 0 uses exactly n workers. Output is identical across settings.
	Workers int
	// Horizon bounds how far apart (in local-clock time units) any two log
	// rows about the same packet can be stamped: cross-node clock skew
	// plus in-network packet lifetime. Packets are finalized only once the
	// watermark clears their last row by more than Horizon. Too small a
	// horizon finalizes packets that later grow rows (they reappear as
	// duplicate partial flows, as if their late rows had been lost); too
	// large only delays finalization. math.MaxInt64 means unbounded:
	// nothing is finalized before Drain.
	Horizon int64
	// RetainFlows keeps every finalized flow for Drain's Result. Off (the
	// service default) no window keeps its flows: each engine worker builds
	// every flow into one small recycled arena and drops it once classified,
	// and Drain's Result carries none — the memory bound then covers flows
	// too, not just pending rows, and a window allocates nothing for them.
	RetainFlows bool
}

// Stats is a point-in-time snapshot of a session's lifecycle counters.
type Stats struct {
	// Epoch counts Advance/Drain calls that moved the session.
	Epoch int
	// Watermark is the effective watermark reached so far; math.MinInt64
	// until an Advance first moves the session (clocks may be negative).
	Watermark int64
	// Ingested is the total number of events ever appended.
	Ingested int
	// PendingRows / PendingPackets measure the retained packet rows — the
	// quantity the watermark keeps bounded.
	PendingRows    int
	PendingPackets int
	// FinalizedPackets counts packets retired through reconstruction.
	FinalizedPackets int
	// InferredEvents and Anomalies total the finalized packets' inferred
	// events and anomalous records, counted whether or not flows are
	// retained; Drain's Result carries the same totals.
	InferredEvents int
	Anomalies      int
	// OperationalEvents counts server up/down events seen (kept for the
	// life of the session; there are only ever a handful).
	OperationalEvents int
	// Nodes is the number of nodes observed.
	Nodes int
	// Drained reports whether Drain has completed the session.
	Drained bool
}

// Session is the resident ingest pipeline. All methods are safe for
// concurrent use: one mutex guards the whole session, which is plenty —
// Append is a column append plus watermark bump, and the heavy lifting in
// Advance fans out to engine workers while still holding the lock (a second
// Advance would have to wait anyway for deterministic output). Everything
// the session knows per node — watermark, pending rows, server up/down rows
// — lives in its pending store.
//
// Session is deliberately NOT a //refill:owned type: it is shared across
// goroutines by design (HTTP handlers, appenders, snapshot readers) and its
// mutex is the ownership story. The owned pieces inside — the pending store,
// the recycled retire window, per-window run state, arenas, classifier
// scratch — carry their own markers. The window lives under s.mu: each
// retire overwrites the views of the one before, so analyzing a window
// outside the lock (ROADMAP 2(c)) needs one Window per analysis in flight.
type Session struct {
	mu  sync.Mutex
	eng *engine.Engine
	cfg Config

	// store is the session's only per-node table: each node's watermark
	// and unretired packet rows, and the operational (server up/down) rows
	// — a handful for the life of the session, read through
	// event.OperationalEvents, the merge Partition's own operational slice
	// comes from, so a drained session's Result and schedule are
	// bit-identical to the batch path's.
	store *event.PendingStore

	watermark int64
	epoch     int
	ingested  int

	// acc accumulates the finalized windows' parts; flows only when
	// Config.RetainFlows. The number of its Outcomes is the finalized-packet
	// count. Its inferred-event and anomaly counts are not derivable from
	// the outcomes: a checkpoint stores them.
	acc engine.Parts

	// window is where each retire puts its packets' views, recycled across
	// Advance calls. The views are valid until the next retire and are read
	// only under s.mu: the engine's workers walk them inside retireLocked,
	// and a flow they keep copies its events out.
	window event.Window

	drained bool
	result  *engine.Result
	report  *diagnosis.Report
}

// NewSession validates the config and returns an empty session.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Engine == nil {
		return nil, errors.New("ingest: Config.Engine is required")
	}
	if cfg.Diagnosis.Sink == event.NoNode {
		return nil, errors.New("ingest: Config.Diagnosis.Sink is required")
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("ingest: negative Horizon %d", cfg.Horizon)
	}
	return &Session{
		eng:       cfg.Engine,
		cfg:       cfg,
		store:     event.NewPendingStore(0),
		watermark: math.MinInt64,
	}, nil
}

// Append feeds node's next log fragment, given as events. Events are stamped
// with node (like Log.Append) and must continue the node's log: local
// timestamps nondecreasing across the node's fragments. The events are
// gathered into a batch and go through AppendRows; a fragment that is
// already columnar — a decoded request body, a mapped snapshot — goes there
// directly.
func (s *Session) Append(node event.NodeID, events []event.Event) error {
	l := event.Log{Node: node}
	l.Batch().Grow(len(events))
	for _, e := range events {
		l.Append(e)
	}
	return s.AppendRows(node, l.Batch(), 0, l.Len())
}

// AppendRows is Append for the fragment held in rows [lo, hi) of b, read
// straight from its columns: refill-serve appends each node log of a decoded
// body this way, and the snapshot source each node's span of a mapped
// window. The pending store's AppendRows buffers the packet rows, keeps the
// server up/down rows for the life of the session and raises the node's
// watermark to the fragment's highest timestamp. b is only read, so it may
// be read-only, and the session keeps no reference to it. The range must
// lie within b.
func (s *Session) AppendRows(node event.NodeID, b *event.Batch, lo, hi int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return ErrDrained
	}
	if lo >= hi {
		return nil
	}
	s.store.AppendRows(node, b, lo, hi)
	s.ingested += hi - lo
	return nil
}

// Punctuate tells the session that node has nothing more below through: its
// watermark rises to through (never falls) without a row, so a silent source
// or a feeder at a time cut stops holding the effective watermark back. A row
// below through appended later breaks the contract, as an out-of-order
// fragment would. A first punctuation also makes the node count.
func (s *Session) Punctuate(node event.NodeID, through int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Punctuate(node, through)
}

// Register makes node count toward the effective watermark before its first
// fragment arrives — Punctuate(node, math.MinInt64): until the node appends
// or punctuates, the session finalizes nothing on its account. Use it when a
// slow source must hold the watermark back; a node that only ever appends can
// skip it.
func (s *Session) Register(node event.NodeID) { s.Punctuate(node, math.MinInt64) }

// Advance moves the session watermark toward watermark — clamped to the
// minimum per-node watermark, since a node that has only shown rows up to
// time t may still append rows at t and beyond, and held at the campaign end
// while an outage is open (holdLocked) — and finalizes every packet whose
// rows are provably complete (last seen more than Config.Horizon below the
// effective watermark). Returns the number of packets finalized.
func (s *Session) Advance(watermark int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return 0, ErrDrained
	}
	ew := watermark
	if low, ok := s.store.Low(); ok && low < ew {
		ew = low
	}
	if ew > s.cfg.Diagnosis.End {
		ew = s.holdLocked(ew)
	}
	if ew <= s.watermark {
		return 0, nil
	}
	return s.retireLocked(ew, false), nil
}

// retireLocked finalizes every packet complete below the effective
// watermark ew — or, when final, every pending packet whatever its
// timestamps — and folds the retired window through the engine. Caller holds
// s.mu.
func (s *Session) retireLocked(ew int64, final bool) int {
	views := s.store.Retire(&s.window, s.cutoff(ew), final)
	s.epoch++
	if ew > s.watermark {
		s.watermark = ew
	}
	if len(views) == 0 {
		return 0
	}
	_, sched := s.scheduleLocked(ew, final)
	fu := engine.Fusion{KeepFlows: s.cfg.RetainFlows, Sink: s.cfg.Diagnosis.Sink, Sched: sched}
	s.acc.Fold(s.eng.Run(views, s.cfg.Workers, fu))
	return len(views)
}

// cutoff is the retirement bound at effective watermark ew: a packet last
// seen strictly below ew − Horizon is complete. The subtraction saturates at
// math.MinInt64 (nothing retires) instead of wrapping past it, and an
// unbounded Horizon retires nothing before Drain.
func (s *Session) cutoff(ew int64) int64 {
	c := ew - s.cfg.Horizon
	if c > ew || s.cfg.Horizon == math.MaxInt64 {
		return math.MinInt64
	}
	return c
}

// holdLocked keeps ew from passing the campaign end while the last outage
// seen is open: a sink loss past the end is an outage loss only if a
// server-up closes the outage later, so nothing above the later of the
// outage's start and the end is finalized until one arrives or Drain
// settles it. Caller holds s.mu.
func (s *Session) holdLocked(ew int64) int64 {
	if start, open := diagnosis.OpenOutage(event.OperationalEvents(s.store.Operational())); open {
		return min(ew, max(start, s.cfg.Diagnosis.End))
	}
	return ew
}

// scheduleLocked returns the operational events seen so far and the outage
// schedule a window's packets are classified against: at drain (final) a
// trailing open outage ends at the campaign end, exactly like the batch
// build; mid-session it reaches at least ew. Both decide every loss time
// below ew alike — outages closed below ew are the same in both, and an open
// one closes at a server-up, which cannot precede ew, or at the campaign
// end, which holdLocked keeps ew from passing unless the outage starts later.
func (s *Session) scheduleLocked(ew int64, final bool) ([]event.Event, diagnosis.OutageSchedule) {
	ops := event.OperationalEvents(s.store.Operational())
	end := s.cfg.Diagnosis.End
	if !final {
		end = ew
		if n := len(ops); n > 0 && ops[n-1].Time > end {
			end = ops[n-1].Time
		}
	}
	return ops, diagnosis.OutagesFromOperational(ops, end)
}

// Snapshot assembles a live Report over every packet finalized so far,
// without disturbing ingestion: the outcomes, settled into packet-ID order,
// are copied, and the outage schedule reflects the operational events seen
// so far. The report shares no storage with the session, so later windows
// never change it. After Drain it returns the final report.
func (s *Session) Snapshot() *diagnosis.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return s.report
	}
	s.acc.Settle()
	_, sched := s.scheduleLocked(s.watermark, false)
	return diagnosis.FromParts(s.cfg.Diagnosis.Sink, s.cfg.Diagnosis.Start, sched, append([]diagnosis.Outcome(nil), s.acc.Outcomes...))
}

// Drain finalizes every pending packet regardless of watermarks, completes
// the session, and returns the final Result and Report. The Report (and,
// with Config.RetainFlows, the Result's flows) is byte-identical to batch
// Analyze over the union of every appended fragment. Drain is idempotent;
// Append and Advance fail afterwards.
func (s *Session) Drain() (*engine.Result, *diagnosis.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return s.result, s.report
	}
	s.retireLocked(math.MaxInt64, true)
	s.acc.Settle()
	ops, sched := s.scheduleLocked(math.MaxInt64, true)
	s.result = s.acc.Result(ops)
	s.report = diagnosis.FromParts(s.cfg.Diagnosis.Sink, s.cfg.Diagnosis.Start, sched, s.acc.Outcomes)
	s.drained = true
	return s.result, s.report
}

// Watermark returns the effective watermark reached so far.
func (s *Session) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Stats returns a point-in-time snapshot of the lifecycle counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Epoch:             s.epoch,
		Watermark:         s.watermark,
		Ingested:          s.ingested,
		PendingRows:       s.store.Rows(),
		PendingPackets:    s.store.Packets(),
		FinalizedPackets:  len(s.acc.Outcomes),
		InferredEvents:    s.acc.InferredEvents,
		Anomalies:         s.acc.Anomalies,
		OperationalEvents: s.store.Operational().TotalEvents(),
		Nodes:             s.store.Nodes(),
		Drained:           s.drained,
	}
}
