// Package refill is a reproduction of "Connecting the Dots: Reconstructing
// Network Behavior with Individual and Lossy Logs" (ICPP 2015).
//
// REFILL takes per-node event logs that are lossy and unsynchronized —
// the only kind a real distributed deployment yields — and reconstructs
// per-packet event flows: the ordering of every event the packet caused
// across the network, with events missing from the logs inferred from
// protocol semantics. On top of the flows it derives diagnosis products:
// packet traces, loss positions, and loss causes.
//
// The package is a facade over the internal layers:
//
//   - event model and log encoding (internal/event)
//   - FSM inference engines with intra-node and inter-node transitions
//     (internal/fsm, internal/engine)
//   - event flows and per-packet tracing (internal/flow, internal/trace)
//   - loss diagnosis and figure-level aggregation (internal/diagnosis)
//   - baseline analyzers the paper compares against (internal/baseline)
//   - a CitySee-like WSN simulator used as the evaluation substrate
//     (internal/sim/..., internal/logging, internal/workload)
//
// # Quick start: one-shot analysis
//
//	logs, _ := refill.ReadLogs(file)
//	an, _ := refill.NewAnalyzer(refill.AnalyzerOptions{}, refill.WithSink(1))
//	out := an.Analyze(logs)
//	for _, f := range out.Result.Flows {
//		fmt.Println(f)                         // "1-2 trans, [1-2 recv], ..."
//		fmt.Println(refill.BuildTrace(f))      // per-packet trace
//	}
//	fmt.Println(refill.RenderBreakdown(out.Report))
//
// A caller that reads only the report and the totals keeps no flows: with
// AnalyzerOptions.DropFlows each flow is counted, classified and dropped,
// and out.Result carries the inferred-event and anomaly totals
// (Result.InferredEvents, Result.Anomalies) without Flows — what cmd/refill
// does unless -flows, -trace or -clocks reads them.
//
// Functional options layer on top of the AnalyzerOptions struct. Every
// configuration returns byte-identical output — flows stay in packet-ID
// order regardless of worker count:
//
//	an, _ := refill.NewAnalyzer(refill.AnalyzerOptions{},
//		refill.WithSink(1),
//		refill.WithParallelism(4), // 0 = each path's default, <0 = all cores
//	)
//	out := an.Analyze(logs)
//
// # Quick start: resident sessions
//
// Logs do not have to arrive as one finished collection. A Session is a
// long-lived analyzer: feed per-node log fragments as they are retrieved,
// advance the watermark to finalize (reconstruct, classify, evict) the
// packets that are provably complete, snapshot live reports at any point,
// and drain for the final report — byte-identical to the one-shot run over
// the same logs, with retained memory bounded by the in-flight packets
// rather than the campaign size:
//
//	sess, _ := an.NewSession(refill.SessionConfig{Horizon: maxSkew})
//	sess.Append(node, fragment)               // per node, in log order
//	sess.Advance(watermark)                   // finalize completed packets
//	rep := sess.Snapshot()                    // live report so far
//	sess.WriteCheckpoint(path)                // durable resume point
//	_, final := sess.Drain()                  // == one-shot report
//
// A checkpointed session survives a crash: Analyzer.ResumeSession rebuilds
// it from the file and, fed the same remaining fragments, drains into bytes
// identical to a session that never restarted.
//
// cmd/refill-serve wraps a session in an HTTP daemon (ingest + query +
// graceful drain) for deployments where loggers push fragments remotely.
//
// Collections themselves can be persisted as columnar snapshot files
// (WriteSnapshot / OpenSnapshot): page-aligned images of the in-memory
// layout that open by mmap with zero decode work — see cmd/refill's
// -snapshot and convert modes.
//
// Event storage is columnar (structure-of-arrays) internally, and
// reconstructed flows are spans into shared per-worker arenas rather than
// individually allocated slices; the facade deals in plain Event and Flow
// values and the log formats are unchanged. Batch, snapshot and session runs
// all go through one reconstruction driver whose workers pull ranges of
// packets off a shared cursor, each owning its arena and run state outright.
package refill

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
	"repro/internal/ingest"
	"repro/internal/logging"
	"repro/internal/report"
	"repro/internal/sim/network"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core identifiers and the event model.
type (
	// NodeID identifies a node; Server is the base-station pseudo-node.
	NodeID = event.NodeID
	// PacketID identifies a packet end to end (origin node + sequence).
	PacketID = event.PacketID
	// EventType enumerates the protocol events (Trans, Recv, AckRecvd, …).
	EventType = event.Type
	// Event is the paper's (V, L, I) tuple.
	Event = event.Event
	// Log is one node's ordered event log.
	Log = event.Log
	// Collection is the set of per-node logs REFILL analyzes.
	Collection = event.Collection
	// Batch is a log's columnar storage (Log.Batch): one node's rows, the
	// node kept once beside six columns. Session.AppendRows appends a span
	// of one without copying it out into Events.
	Batch = event.Batch
)

// Event types (Table I plus the generation, timeout and last-mile events the
// CitySee stack logs).
const (
	Gen        = event.Gen
	Recv       = event.Recv
	Overflow   = event.Overflow
	Dup        = event.Dup
	Trans      = event.Trans
	AckRecvd   = event.AckRecvd
	Timeout    = event.Timeout
	ServerRecv = event.ServerRecv
	ServerDown = event.ServerDown
	ServerUp   = event.ServerUp
	Enqueue    = event.Enqueue
	Dequeue    = event.Dequeue
	Bcast      = event.Bcast
	Resp       = event.Resp
	Done       = event.Done
)

// Server is the base-station server pseudo-node; NoNode the absent node.
const (
	Server = event.Server
	NoNode = event.NoNode
)

// NewCollection returns an empty log collection.
func NewCollection() *Collection { return event.NewCollection() }

// ParseNode parses a node ID in the log formats' spelling (a decimal id, or
// "server" for the base-station pseudo-node).
func ParseNode(s string) (NodeID, error) { return event.ParseNodeID(s) }

// ReadLogs parses the text log format (one event per line).
func ReadLogs(r io.Reader) (*Collection, error) { return event.ReadCollection(r) }

// WriteLogs writes a collection in the text log format.
func WriteLogs(w io.Writer, c *Collection) error { return event.WriteCollection(w, c) }

// ReadLogsBinary parses the compact binary log format.
func ReadLogsBinary(r io.Reader) (*Collection, error) { return event.ReadCollectionBinary(r) }

// WriteLogsBinary writes a collection in the compact binary log format
// (smaller than text and ~5x faster to encode/parse; use it for
// multi-million-event campaigns).
func WriteLogsBinary(w io.Writer, c *Collection) error { return event.WriteCollectionBinary(w, c) }

// Snapshot is an opened columnar snapshot file: a page-aligned on-disk image
// of a Collection, memory-mapped so Snapshot.Collection's columns alias the
// page cache directly — opening costs no decode work and no per-event
// allocations, unlike the text and binary log formats. The collection is
// read-only (Clone a log's batch to mutate); keep the snapshot open for as
// long as the collection or anything read from it is referenced, and Close
// it afterwards to release the mapping.
type Snapshot = event.Snapshot

// WriteSnapshot writes c as a columnar snapshot file, atomically (temp file
// in the same directory, fsync, rename).
func WriteSnapshot(path string, c *Collection) error { return event.WriteSnapshot(path, c) }

// OpenSnapshot maps a snapshot file written by WriteSnapshot. The header and
// section geometry are verified on open; call Snapshot.Verify to also check
// the content checksums (a full read of the file).
func OpenSnapshot(path string) (*Snapshot, error) { return event.OpenSnapshot(path) }

// Reconstruction results.
type (
	// Flow is a reconstructed per-packet event flow; inferred items are
	// marked.
	Flow = flow.Flow
	// FlowItem is one element of a flow.
	FlowItem = flow.Item
	// Visit summarizes one engine visit (packet life cycle at a node).
	Visit = flow.Visit
	// Outcome is the per-packet diagnosis (cause + loss position).
	Outcome = diagnosis.Outcome
	// Cause is the loss-cause taxonomy of Section V-C.
	Cause = diagnosis.Cause
	// Report aggregates outcomes into the paper's figure-level views.
	Report = diagnosis.Report
	// Trace is the per-packet tracing product.
	Trace = trace.Trace
)

// Loss causes.
const (
	Delivered    = diagnosis.Delivered
	ReceivedLoss = diagnosis.ReceivedLoss
	AckedLoss    = diagnosis.AckedLoss
	TimeoutLoss  = diagnosis.TimeoutLoss
	DupLoss      = diagnosis.DupLoss
	OverflowLoss = diagnosis.OverflowLoss
	TransitLoss  = diagnosis.TransitLoss
	ServerOutage = diagnosis.ServerOutage
	UnknownLoss  = diagnosis.Unknown
)

// Causes lists every cause in presentation order.
func Causes() []Cause { return diagnosis.Causes() }

// Analyzer pipeline.
type (
	// AnalyzerOptions configures the pipeline. Zero-value footguns: Sink
	// has no default (the zero Sink is NoNode and NewAnalyzer rejects it —
	// add WithSink); a zero window leaves a trailing server outage
	// open-ended in the report (add WithWindow); Parallelism 0 picks each
	// path's default — serial for Analyze, all cores for the snapshot and
	// session paths. DropFlows is the one flow-retention switch for
	// Analyze; its zero value keeps every flow.
	AnalyzerOptions = core.Options
	// AnalyzerOption is a functional override applied on top of
	// AnalyzerOptions by NewAnalyzer (WithProtocol, WithParallelism, …).
	AnalyzerOption = core.Option
	// Analyzer is the ready-to-run REFILL pipeline.
	Analyzer = core.Analyzer
	// Output bundles reconstructed flows and the diagnosis report.
	Output = core.Output
	// SnapshotOptions tunes Analyzer.AnalyzeSnapshot — the out-of-core
	// path that feeds a mapped snapshot to an ingest session in bounded
	// memory, one residency window at a time: the window size plus the
	// embedded SessionConfig the session is opened with (completeness
	// horizon, derived from the snapshot when zero; flow retention). The
	// Output matches an.Analyze(snap.Collection()) byte for byte, flows
	// included under RetainFlows; without it there are no flows, but the
	// Result's inferred-event and anomaly totals are the same.
	SnapshotOptions = core.SnapshotOptions
	// Accuracy scores a reconstruction against ground truth.
	Accuracy = core.Accuracy
	// Judgment is a (cause, position) pair from any analyzer.
	Judgment = core.Judgment
)

// NewAnalyzer builds the REFILL pipeline. Functional options are applied on
// top of opts in order:
//
//	an, _ := refill.NewAnalyzer(refill.AnalyzerOptions{},
//		refill.WithSink(1),
//		refill.WithProtocol(refill.ExtendedCTP()),
//		refill.WithParallelism(-1))
func NewAnalyzer(opts AnalyzerOptions, extra ...AnalyzerOption) (*Analyzer, error) {
	return core.NewAnalyzer(opts, extra...)
}

// WithSink names the collection-tree root — the one required option.
func WithSink(sink NodeID) AnalyzerOption { return core.WithSink(sink) }

// WithWindow bounds the analysis window [start, end): end bounds a trailing
// open server outage in the report, and start is the epoch daily bins are
// counted from.
func WithWindow(start, end int64) AnalyzerOption { return core.WithWindow(start, end) }

// WithProtocol overrides the FSM protocol templates.
func WithProtocol(p *Protocol) AnalyzerOption { return core.WithProtocol(p) }

// WithParallelism sets the per-packet reconstruction fan-out under one rule
// for every path: n > 0 exactly n workers, n < 0 all cores, 0 the path's
// default — serial for the batch Analyze (the reproducibility baseline),
// all cores for AnalyzeSnapshot and Session ingest (the throughput paths).
// Output is byte-identical across all settings.
func WithParallelism(workers int) AnalyzerOption { return core.WithParallelism(workers) }

// WithEngineOptions imports engine-level configuration (ablations, inference
// caps, group roster) — for callers that previously built an engine.Options
// by hand and imported internal packages to do it. Fields left at their zero
// value in eo (nil protocol, zero sink, 0 caps, false ablation switches)
// preserve the analyzer's existing settings rather than resetting them.
func WithEngineOptions(eo EngineOptions) AnalyzerOption { return core.WithEngineOptions(eo) }

// WithDailyBins pre-bins the report's daily loss composition (Figure 6) at
// analysis time: Report.DailyComposition(dayLen, days) with the same
// arguments becomes a table read instead of a scan over every outcome.
func WithDailyBins(dayLen int64, days int) AnalyzerOption { return core.WithDailyBins(dayLen, days) }

// Resident ingest sessions.
type (
	// Session is the long-lived incremental analyzer: Append per-node log
	// fragments, Advance the watermark to finalize completed packets,
	// Snapshot live reports, Drain for the final batch-identical output.
	Session = ingest.Session
	// SessionConfig tunes Analyzer.NewSession (horizon, flow retention).
	SessionConfig = core.SessionConfig
	// SessionStats is a point-in-time snapshot of a session's lifecycle
	// counters (watermark, pending rows, finalized packets, …).
	SessionStats = ingest.Stats
)

// ErrSessionDrained is returned by Session mutations after Drain.
var ErrSessionDrained = ingest.ErrDrained

// ErrSessionCheckpointFlows is returned by Session.WriteCheckpoint on a
// RetainFlows session: flows are not serialized, so checkpointing one would
// silently change what Drain returns after a resume.
var ErrSessionCheckpointFlows = ingest.ErrCheckpointFlows

// Protocol templates.
type Protocol = fsm.Protocol

// DefaultCTP returns the CitySee protocol semantics (CTP data collection
// with generation events, hardware ACKs, bounded retransmissions, last mile).
func DefaultCTP() *Protocol { return fsm.DefaultCTP() }

// TableIIProtocol returns the Table II walkthrough variant (origins log no
// generation event), reproducing the paper's flows verbatim.
func TableIIProtocol() *Protocol { return fsm.TableII() }

// ExtendedCTP returns the richer-event protocol (queue enter/leave logged) —
// the paper's "include more events" future work. Pair with a campaign run
// with CampaignConfig.QueueEvents.
func ExtendedCTP() *Protocol { return fsm.ExtendedCTP() }

// DisseminationProtocol returns the negotiation semantics of Figure 3(b)/(d):
// a seeder broadcasts, members respond, completion carries a group
// prerequisite. Configure the engine's Group with the member roster.
func DisseminationProtocol() *Protocol { return fsm.Dissemination() }

// Classify diagnoses a single flow (without outage knowledge).
func Classify(f *Flow) Outcome { return diagnosis.Classify(f) }

// BuildTrace derives the per-packet trace from a flow.
func BuildTrace(f *Flow) *Trace { return trace.Build(f) }

// BuildTraces traces every flow, ordered by packet.
func BuildTraces(flows []*Flow) []*Trace { return trace.BuildAll(flows) }

// Scoring against simulator ground truth.
type (
	// GroundTruth is the simulator's omniscient run record.
	GroundTruth = network.GroundTruth
	// Fate is one packet's true disposition.
	Fate = network.Fate
)

// Score compares a report against ground-truth fates.
func Score(rep *Report, fates map[PacketID]Fate) Accuracy { return core.Score(rep, fates) }

// ScoreJudgments scores any analyzer's judgments the same way.
func ScoreJudgments(j map[PacketID]Judgment, fates map[PacketID]Fate) Accuracy {
	return core.ScoreJudgments(j, fates)
}

// Baselines.
type (
	// BaselineVerdict is a baseline's per-packet conclusion.
	BaselineVerdict = baseline.Verdict
	// LostPacket is one loss the sink view inferred, with approximate time.
	LostPacket = baseline.LostPacket
	// WitStats quantifies Wit-style common-event mergeability.
	WitStats = baseline.WitStats
)

// SinkView infers losses from delivered data alone (Figure 4's view).
func SinkView(c *Collection, period int64) []LostPacket { return baseline.SinkView(c, period) }

// NaiveAnalyze applies Section III's per-node trans-without-ack rule.
func NaiveAnalyze(c *Collection) map[PacketID]BaselineVerdict { return baseline.Naive(c) }

// ClockMergeAnalyze orders events by local clocks and classifies from the
// last event — the unsynchronized-logs straw man.
func ClockMergeAnalyze(c *Collection) map[PacketID]BaselineVerdict { return baseline.ClockMerge(c) }

// TimeCorrAnalyze attributes each loss to the dominant concurrent anomaly
// (Section V-D2's correlation method).
func TimeCorrAnalyze(c *Collection, lost []LostPacket, bin int64) map[PacketID]BaselineVerdict {
	return baseline.TimeCorr(c, lost, bin)
}

// WitMergeability measures how alignable per-node logs are via common events.
func WitMergeability(c *Collection) WitStats { return baseline.WitMergeability(c) }

// Campaign simulation (the evaluation substrate).
type (
	// CampaignConfig scripts a CitySee-like campaign.
	CampaignConfig = workload.CitySeeConfig
	// Campaign is a completed campaign: lossy logs + ground truth.
	Campaign = workload.Result
)

// RunCampaign simulates a campaign and collects its lossy logs.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) { return workload.Run(cfg) }

// TinyCampaign returns a fast small-scale campaign config (tests, examples).
func TinyCampaign(seed int64) CampaignConfig { return workload.Tiny(seed) }

// Report rendering.

// RenderBreakdown renders the Figure 9 / Section V-C cause table.
func RenderBreakdown(rep *Report) string { return report.Breakdown(rep) }

// RenderDaily renders Figure 6 (per-day cause composition).
func RenderDaily(rep *Report, dayLen int64, days int) string {
	return report.Daily(rep, dayLen, days)
}

// RenderAccuracy renders an analyzer-accuracy comparison table.
func RenderAccuracy(rows []report.AccuracyRow) string { return report.AccuracyTable(rows) }

// AccuracyRow pairs an analyzer name with its scored accuracy.
type AccuracyRow = report.AccuracyRow

// EngineOptions exposes the low-level engine configuration (ablations).
type EngineOptions = engine.Options

// Engine is the low-level reconstruction engine. NewEngine with
// Engine.Analyze, AnalyzeViews and AnalyzePacket expose flows-only, serial
// reconstruction for callers that do not want the diagnosis pipeline.
type Engine = engine.Engine

// NewEngine builds the low-level engine directly.
func NewEngine(opts EngineOptions) (*Engine, error) { return engine.New(opts) }

// Logging policies (the paper's "efficient logging methods" future work).
type (
	// LogPolicy decides which events a node writes at all.
	LogPolicy = logging.Policy
	// LogCollectorConfig tunes the lossy collection process.
	LogCollectorConfig = logging.Config
	// LogCollector is the lossy, clock-skewed collection process.
	LogCollector = logging.Collector
)

// FullLogging logs everything (the default policy).
func FullLogging() LogPolicy { return logging.FullPolicy{} }

// SelectiveLogging logs only the first transmission per hop.
func SelectiveLogging() LogPolicy { return logging.NewSelectivePolicy() }

// SampledLogging logs each event with probability p.
func SampledLogging(p float64, seed int64) LogPolicy { return logging.NewSampledPolicy(p, seed) }

// ReceiverSideLogging drops all sender-side records.
func ReceiverSideLogging() LogPolicy { return logging.ReceiverSidePolicy{} }

// NewLogCollector builds a collection process; attach it to a simulation as
// an event sink.
func NewLogCollector(cfg LogCollectorConfig) *LogCollector { return logging.NewCollector(cfg) }

// Clock recovery: REFILL never needs synchronized clocks, but reconstructed
// flows contain enough cross-node pairings to estimate every node's clock
// offset and drift after the fact, anchored at the base-station server.
type (
	// ClockMap is a solved set of per-node clock parameters.
	ClockMap = clocksync.Result
	// ClockParams is one node's (offset, drift).
	ClockParams = clocksync.Params
)

// RecoverClocks estimates the network's clocks from reconstructed flows,
// anchored at anchor (normally refill.Server), with 10 Gauss–Seidel sweeps
// over every paired node.
func RecoverClocks(flows []*Flow, anchor NodeID) *ClockMap {
	return clocksync.Estimate(flows, anchor)
}

// Per-packet performance measurement (Section II: "per-packet delay, packet
// retransmission, packet loss can also be revealed").
type (
	// PacketStats is one delivered packet's measured performance.
	PacketStats = stats.PacketStats
	// StatsSummary aggregates packet measurements.
	StatsSummary = stats.Summary
)

// ComputeStats measures delivered packets' delay/retransmissions/hops from
// flows; pass a recovered ClockMap to de-skew the delays (nil = raw clocks).
func ComputeStats(flows []*Flow, clocks *ClockMap) []PacketStats {
	return stats.Compute(flows, clocks)
}

// SummarizeStats reduces packet measurements to a summary.
func SummarizeStats(ps []PacketStats) StatsSummary { return stats.Summarize(ps) }
