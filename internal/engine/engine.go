// Package engine implements REFILL's connected inference engines and the
// transition algorithm of Section IV: per-node FSM instances driven by the
// merged per-node logs, synchronized through inter-node prerequisite
// transitions, with lost events inferred through intra-node jumps and
// prerequisite-path inference.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
)

// Options configures an Engine.
type Options struct {
	// Protocol supplies the FSM templates and inter-node prerequisite
	// semantics. Defaults to fsm.DefaultCTP().
	Protocol *fsm.Protocol
	// Sink is the collection-tree root node. Required: it selects which
	// node runs the sink template.
	Sink event.NodeID
	// DisableIntra turns off intra-node transitions (ablation E-A2):
	// events with no normal transition are discarded instead of jumped.
	DisableIntra bool
	// DisableInter turns off inter-node prerequisite processing (ablation
	// E-A2): engines run independently, as single-node log analyzers do.
	DisableInter bool
	// MaxInferred caps the number of inferred events per packet as a
	// safety valve against pathological inputs. Defaults to 4096.
	MaxInferred int
	// MaxDepth caps prerequisite recursion depth. Defaults to 256.
	MaxDepth int
	// Group is the node roster for protocols with group (many-to-1)
	// prerequisites, e.g. fsm.Dissemination: a Done event requires every
	// listed node (minus the event's own) to have passed the prerequisite
	// state.
	Group []event.NodeID
}

// prereqRule is a protocol prerequisite flattened into a dense per-type
// table, so the per-event lookup is an array index instead of a map access.
type prereqRule struct {
	pr fsm.Prereq
	ok bool
}

// resolvedPrereq is a Prereq with its state names resolved against one
// concrete graph: the per-drive StateByName lookups (and the slice the old
// acceptable() allocated per call) are paid once at engine construction.
type resolvedPrereq struct {
	states  []fsm.StateID // pr.AnyOf resolved in the graph, declaration order
	inferTo fsm.StateID   // fsm.NoState when the graph lacks the state
}

// graphPrereqs is one role's template: its graph and every event type's
// prerequisites resolved against it.
type graphPrereqs struct {
	graph *fsm.Graph
	inter []resolvedPrereq // indexed by event.Type
	self  []resolvedPrereq
}

// rule returns event type t's resolved inter-prerequisite, or its
// self-prerequisite when self is set.
func (gp *graphPrereqs) rule(t event.Type, self bool) resolvedPrereq {
	if self {
		return gp.self[t]
	}
	return gp.inter[t]
}

// Engine reconstructs per-packet event flows from lossy per-node logs.
type Engine struct {
	opts Options
	// interPrereq / selfPrereq are the protocol's prerequisite rules as
	// dense per-type tables; roles holds each role's graph with their state
	// names resolved in it, so a visit finds its template by one index.
	// sentBound[t] marks rules that bind a transmission target (PeerRole
	// sender, AnyOf includes Sent) for checkPeerBinding.
	interPrereq [event.NumTypes]prereqRule
	selfPrereq  [event.NumTypes]prereqRule
	sentBound   [event.NumTypes]bool
	roles       [fsm.RoleServer + 1]*graphPrereqs // indexed by fsm.NodeRole
	// runs is a free list of per-packet run state (node tables, visit
	// structs) for AnalyzePacket calls and driver workers, under runMu: a
	// sync.Pool would drop its runs at every GC cycle, and a caller
	// analyzing window after window would allocate them again.
	runMu sync.Mutex
	runs  []*run
}

// getRun takes a run off the free list, or makes one.
func (e *Engine) getRun() *run {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if k := len(e.runs); k > 0 {
		r := e.runs[k-1]
		e.runs = e.runs[:k-1]
		return r
	}
	return new(run)
}

// putRun returns r to the free list; the caller must not touch it again.
func (e *Engine) putRun(r *run) {
	e.runMu.Lock()
	e.runs = append(e.runs, r)
	e.runMu.Unlock()
}

// New validates options and returns an Engine.
func New(opts Options) (*Engine, error) {
	if opts.Protocol == nil {
		opts.Protocol = fsm.DefaultCTP()
	}
	if opts.Sink == event.NoNode {
		return nil, fmt.Errorf("engine: options must name the sink node")
	}
	if opts.MaxInferred <= 0 {
		opts.MaxInferred = 4096
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 256
	}
	e := &Engine{opts: opts}
	for t := 0; t < event.NumTypes; t++ {
		if pr, ok := opts.Protocol.Prereq(event.Type(t)); ok {
			e.interPrereq[t] = prereqRule{pr: pr, ok: true}
			if pr.PeerRole == fsm.SelfSender && !pr.Group {
				for _, name := range pr.AnyOf {
					if name == fsm.StateSent {
						e.sentBound[t] = true
					}
				}
			}
		}
		if pr, ok := opts.Protocol.SelfPrereq(event.Type(t)); ok {
			e.selfPrereq[t] = prereqRule{pr: pr, ok: true}
		}
	}
	for role := fsm.RoleOrigin; role <= fsm.RoleServer; role++ {
		g := opts.Protocol.Graph(role)
		gp := &graphPrereqs{
			graph: g,
			inter: make([]resolvedPrereq, event.NumTypes),
			self:  make([]resolvedPrereq, event.NumTypes),
		}
		for t := 0; t < event.NumTypes; t++ {
			gp.inter[t] = resolvePrereq(g, e.interPrereq[t])
			gp.self[t] = resolvePrereq(g, e.selfPrereq[t])
		}
		e.roles[role] = gp
	}
	return e, nil
}

// resolvePrereq resolves a rule's state names in g, mirroring the semantics
// of the prerequisite "acceptable" set: AnyOf states in declaration order,
// plus the preferred inference target.
func resolvePrereq(g *fsm.Graph, rule prereqRule) resolvedPrereq {
	rp := resolvedPrereq{inferTo: fsm.NoState}
	if !rule.ok {
		return rp
	}
	for _, name := range rule.pr.AnyOf {
		if id := g.StateByName(name); id != fsm.NoState {
			rp.states = append(rp.states, id)
		}
	}
	if id := g.StateByName(rule.pr.InferTo); id != fsm.NoState {
		rp.inferTo = id
	}
	return rp
}

// Result is the outcome of analyzing a whole collection.
type Result struct {
	// Flows holds one reconstructed flow per packet, ordered by packet ID.
	Flows []*flow.Flow
	// Operational carries the non-packet events (server up/down) found in
	// the logs, ordered by time.
	Operational []event.Event
	// InferredEvents and Anomalies total every reconstructed flow's inferred
	// items and anomalies, counted by the driver whether or not Flows are
	// kept: with flows, the sums of Flow.InferredCount and len(Anomalies).
	InferredEvents int
	Anomalies      int
}

// flowSizing estimates the output arena geometry from partition statistics:
// the logged item volume is the views' exact row count; the inferred volume
// is unknowable ahead of time, so it is estimated as an eighth of the logged
// rows plus one cascade seed per view — generous for healthy logs (campaign
// measurements sit near a tenth), low for very lossy ones, and either way
// corrected by the arena's chunked growth. Ablations that disable inference
// drop the estimate to zero.
func (e *Engine) flowSizing(views []*event.PacketView) flow.Sizing {
	logged, segs := 0, 0
	for _, v := range views {
		logged += v.TotalEvents()
		segs += v.NodeCount()
	}
	inferred := 0
	if !e.opts.DisableIntra || !e.opts.DisableInter {
		inferred = logged/8 + len(views)
		if lim := e.opts.MaxInferred * len(views); inferred > lim {
			inferred = lim
		}
	}
	return flow.Sizing{
		Flows: len(views),
		Items: logged + inferred,
		// One visit per (node, packet) span, plus slack for rotations
		// and prerequisite-driven nodes that logged nothing. Campaign
		// measurements put the extra-visit rate near 15% of spans; a
		// quarter keeps the whole column in one chunk (an under-estimate
		// costs a half-size refill chunk, never correctness).
		Visits:    segs + segs/4 + 4,
		Anomalies: len(views)/32 + 4,
	}
}

// analyze runs the transition algorithm for one view and commits the flow
// into a. The run must be idle; it is left reset and reusable for the next
// packet, so a worker can own one run for its whole share of the views
// instead of bouncing runs through a shared pool.
func (r *run) analyze(e *Engine, v *event.PacketView, a *flow.Arena) *flow.Flow {
	r.e = e
	r.pkt = v.Packet
	r.view = v
	r.infers = 0
	r.inferCapHit = false
	r.items = r.items[:0]
	r.visitsOut = r.visitsOut[:0]
	r.anoms = r.anoms[:0]
	// Deterministic node order: the packet's origin first (the paper's
	// algorithm starts from a given node; custody starts at the origin),
	// then ascending node IDs. The view's spans are already ascending (one
	// span per node — Partition's invariant), so no sorting is
	// needed, and the Server pseudo-node has the largest ID and therefore
	// naturally comes last.
	r.order = r.order[:0]
	spans := v.Spans()
	for _, sp := range spans {
		if sp.Node != v.Packet.Origin {
			continue
		}
		ni := r.addNode(sp.Node)
		r.queues[ni] = queueSpan{cur: sp.Start, end: sp.End}
		r.order = append(r.order, int32(ni))
		break
	}
	for _, sp := range spans {
		if sp.Node == v.Packet.Origin {
			continue
		}
		ni := r.addNode(sp.Node)
		r.queues[ni] = queueSpan{cur: sp.Start, end: sp.End}
		r.order = append(r.order, int32(ni))
	}
	r.exec()
	f := a.Build(r.pkt, r.items, r.visitsOut, r.anoms)
	r.reset()
	return f
}

// visit is one life cycle of one node's engine for the packet under analysis.
type visit struct {
	node    event.NodeID
	graph   *fsm.Graph
	gp      *graphPrereqs // resolved prerequisites of graph
	index   int
	cur     fsm.StateID
	peer    event.NodeID // transmission target bound by trans/ack/timeout
	recvInf bool         // custody entry (Received/Has) was inferred
	lastPos int
	started bool
}

// queueSpan is a node's unconsumed remainder of its view span: batch rows
// [cur, end) of the run's view. step materializes an Event only when it pops
// the row, so queued events occupy no per-run storage at all.
type queueSpan struct{ cur, end int32 }

func (q queueSpan) empty() bool { return q.cur >= q.end }

// run is the per-packet execution state of the transition algorithm. All
// per-node bookkeeping is slice-backed, indexed by a dense per-packet node
// index (nodes), so the per-event hot path performs no map operations; the
// whole struct — including retired visit structs and the reusable output
// scratch — is recycled, either through the engine's free list (standalone
// AnalyzePacket calls) or by a driver worker owning one run outright. The
// unconsumed input lives in the view's columnar batch, addressed by
// queueSpan row ranges.
//
// The flow under construction accumulates in the items/visitsOut/anoms
// scratch slices, which keep their capacity across packets; analyze commits
// them as exact-sized arena spans at the end, so steady-state reconstruction
// allocates nothing per flow beyond the amortized arena chunks.
//
//refill:owned — per-packet run state: one run per worker, recycled through the engine's free list only between packets
type run struct {
	e    *Engine
	pkt  event.PacketID
	view *event.PacketView
	// items, visitsOut and anoms are the flow output scratch.
	items     []flow.Item
	visitsOut []flow.Visit
	anoms     []flow.Anomaly
	// nodes maps the dense node index to the NodeID; the parallel slices
	// below are addressed by that index.
	nodes       []event.NodeID
	queues      []queueSpan
	current     []*visit
	byNode      [][]*visit // every visit of the node, creation order
	driving     []bool
	processing  []int // in-flight process() frames per node (see process)
	all         []*visit
	order       []int32  // node indices in deterministic processing order
	spare       []*visit // retired visit structs for reuse
	infers      int
	inferCapHit bool
}

// reset clears the per-packet state, recycling visit structs and dropping
// references that would pin the caller's collection, while keeping every
// slice's capacity for the next packet. (The output scratch is truncated at
// the start of analyze instead, so its contents stay readable during Build.)
func (r *run) reset() {
	r.spare = append(r.spare, r.all...)
	r.all = r.all[:0]
	for i := range r.nodes {
		r.current[i] = nil
	}
	r.view = nil
	r.nodes = r.nodes[:0]
	r.queues = r.queues[:0]
	r.current = r.current[:0]
	r.driving = r.driving[:0]
	r.processing = r.processing[:0]
	r.byNode = r.byNode[:0] // inner slices keep their capacity (see addNode)
}

// addNode registers a node under the next dense index.
func (r *run) addNode(n event.NodeID) int {
	i := len(r.nodes)
	r.nodes = append(r.nodes, n)
	r.queues = append(r.queues, queueSpan{})
	r.current = append(r.current, nil)
	r.driving = append(r.driving, false)
	r.processing = append(r.processing, 0)
	if i < cap(r.byNode) {
		r.byNode = r.byNode[:i+1]
		r.byNode[i] = r.byNode[i][:0]
	} else {
		r.byNode = append(r.byNode, nil)
	}
	return i
}

// idx returns the dense index for a node, registering it on first use (a
// prerequisite peer may have no logged events of its own). Node sets per
// packet are small, so a linear scan beats hashing.
func (r *run) idx(n event.NodeID) int {
	for i, m := range r.nodes {
		if m == n {
			return i
		}
	}
	return r.addNode(n)
}

// roleOf classifies which template a node runs for this packet.
func (r *run) roleOf(n event.NodeID) fsm.NodeRole {
	switch {
	case n == event.Server:
		return fsm.RoleServer
	case n == r.pkt.Origin:
		return fsm.RoleOrigin
	case n == r.e.opts.Sink:
		return fsm.RoleSink
	default:
		return fsm.RoleForward
	}
}

// newVisit opens a visit on template gp at node index ni, reusing a retired
// visit struct when one is available.
func (r *run) newVisit(ni int, gp *graphPrereqs, index int) *visit {
	var v *visit
	if k := len(r.spare); k > 0 {
		v = r.spare[k-1]
		r.spare = r.spare[:k-1]
		*v = visit{}
	} else {
		v = new(visit)
	}
	v.node = r.nodes[ni]
	v.graph = gp.graph
	v.gp = gp
	v.index = index
	v.cur = gp.graph.Start()
	v.peer = event.NoNode
	v.lastPos = -1
	r.current[ni] = v
	r.all = append(r.all, v)
	r.byNode[ni] = append(r.byNode[ni], v)
	return v
}

// visitFor returns the node's current visit, creating visit 0 on first use.
func (r *run) visitFor(ni int) *visit {
	if v := r.current[ni]; v != nil {
		return v
	}
	return r.newVisit(ni, r.e.roles[r.roleOf(r.nodes[ni])], 0)
}

// rotate closes the node's current visit and opens a fresh one on template gp
// (the packet revisiting the node: routing loop or duplicate copy). A loop
// can bring a packet back to its own origin, in which case the new visit runs
// the forwarding template instead of the origin one.
func (r *run) rotate(ni int, gp *graphPrereqs) *visit {
	old := r.current[ni]
	return r.newVisit(ni, gp, old.index+1)
}

// altGraph returns the alternative template a node may run on a revisit:
// an origin caught in a routing loop acts as a forwarder. Other roles have
// no alternative.
func (r *run) altGraph(n event.NodeID) *graphPrereqs {
	if r.roleOf(n) == fsm.RoleOrigin {
		return r.e.roles[fsm.RoleForward]
	}
	return nil
}

// exec runs the main loop: drain every node's queue in deterministic order
// (prerequisite recursion may consume other queues along the way), then
// finalize visit summaries.
func (r *run) exec() {
	for pass := 0; pass < 2; pass++ {
		progress := false
		for _, ni := range r.order {
			for !r.queues[ni].empty() {
				r.step(int(ni), 0)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for _, v := range r.all {
		if !v.started {
			continue
		}
		r.visitsOut = append(r.visitsOut, flow.Visit{
			Node:         v.node,
			Index:        v.index,
			State:        v.graph.State(v.cur).Name,
			Terminal:     v.graph.Terminal(v.cur),
			RecvInferred: v.recvInf,
			Peer:         v.peer,
			LastPos:      v.lastPos,
		})
	}
}

// step consumes the next queued event of node index ni. The caller must have
// checked the queue is non-empty.
//
//refill:noalloc — per-event dispatch; every queued event passes through here
func (r *run) step(ni, depth int) bool {
	row := int(r.queues[ni].cur)
	r.queues[ni].cur++
	return r.process(ni, r.view.EventAt(r.nodes[ni], row), depth)
}

// process applies one logged event at node index ni, following the paper's
// transition algorithm:
//
//  1. take the normal transition if one matches, first satisfying any
//     inter-node prerequisite by recursively driving the peer engine;
//  2. otherwise take the intra-node transition, first emitting its skipped
//     normal-path events as inferred lost events;
//  3. if the current visit has no matching transition but a fresh engine
//     would (the packet revisiting the node), rotate to a new visit;
//  4. otherwise the event cannot be processed and is omitted (anomaly).
//
// It reports whether the event was applied.
//
//refill:noalloc — the walk's hot loop: the alloc war's wins live or die here
func (r *run) process(ni int, ev event.Event, depth int) bool {
	n := r.nodes[ni]
	if depth > r.e.opts.MaxDepth {
		r.anomaly(ev, "recursion depth exceeded")
		return false
	}
	label, ok := fsm.LabelFor(ev, n)
	if !ok {
		r.anomaly(ev, "event does not belong to this node")
		return false
	}
	if ev.Packet != r.pkt {
		r.anomaly(ev, "event for a different packet")
		return false
	}
	r.processing[ni]++
	defer func() { r.processing[ni]-- }()
	// Self-prerequisite: the event is only possible if some visit of this
	// node already passed a given state (e.g. dup implies a prior recv).
	// An intra-node correlation, so it obeys the DisableIntra ablation.
	if !r.e.opts.DisableIntra && int(ev.Type) < event.NumTypes && r.e.selfPrereq[ev.Type].ok {
		r.ensureSelf(ni, ev, depth)
	}
	v := r.visitFor(ni)
	tr, ok := r.transitionFor(v, label)
	if !ok {
		// The current visit cannot consume the event; if a fresh
		// engine can — on the node's own template or, for an origin in
		// a routing loop, on the forwarding template — the packet is
		// revisiting the node.
		if v.cur != v.graph.Start() && r.startCan(v.graph, label) {
			v = r.rotate(ni, v.gp)
			tr, ok = r.transitionFor(v, label)
		}
		if !ok {
			if alt := r.altGraph(n); alt != nil && alt.graph != v.graph && r.startCan(alt.graph, label) {
				v = r.rotate(ni, alt)
				tr, ok = r.transitionFor(v, label)
			}
		}
	}
	if !ok {
		//refill:allow escapecheck — anomaly path: rare by construction, diagnostic string wanted
		r.anomaly(ev, "no transition from state "+v.graph.State(v.cur).Name)
		return false
	}
	// Intra-node jump: the skipped normal-path events are the inferred
	// lost events and precede the triggering event in the flow.
	if tr.Kind == fsm.Intra {
		up, down := hintsFromEvent(ev, n)
		for _, step := range tr.InferPath {
			r.emitInferred(v, step, up, down, depth)
		}
	}
	// Inter-node prerequisite: drive the peer engine to its prerequisite
	// state before this event may take effect (Definition 4.1).
	r.satisfyPrereq(ev, depth)
	// A deep prerequisite chain may itself have advanced or rotated this
	// node's engine (cyclic traffic); re-resolve before committing.
	if cur := r.current[ni]; cur != v {
		v = cur
		if tr, ok = r.transitionFor(v, label); !ok {
			//refill:allow escapecheck — anomaly path: rare by construction, diagnostic string wanted
			r.anomaly(ev, "visit advanced by prerequisite chain; no transition from "+v.graph.State(v.cur).Name)
			return false
		}
	}
	r.apply(v, tr, ev, false)
	return true
}

// transitionFor looks up the transition for (visit state, label), honoring
// the DisableIntra ablation.
func (r *run) transitionFor(v *visit, l fsm.Label) (fsm.Transition, bool) {
	if tr, ok := v.graph.NormalNext(v.cur, l); ok {
		return tr, true
	}
	if r.e.opts.DisableIntra {
		return fsm.Transition{}, false
	}
	return v.graph.IntraNext(v.cur, l)
}

// startCan reports whether a fresh visit could consume the label.
func (r *run) startCan(g *fsm.Graph, l fsm.Label) bool {
	if _, ok := g.NormalNext(g.Start(), l); ok {
		return true
	}
	if r.e.opts.DisableIntra {
		return false
	}
	_, ok := g.IntraNext(g.Start(), l)
	return ok
}

// apply commits a transition: appends the item to the flow and updates the
// visit's state, custody metadata and peer binding.
func (r *run) apply(v *visit, tr fsm.Transition, ev event.Event, inferred bool) {
	r.items = append(r.items, flow.Item{Event: ev, Inferred: inferred})
	pos := len(r.items) - 1
	v.cur = tr.To
	v.lastPos = pos
	v.started = true
	switch ev.Type {
	case event.Trans, event.AckRecvd, event.Timeout:
		if ev.Receiver != event.NoNode {
			v.peer = ev.Receiver
		}
	case event.Recv, event.Gen:
		v.recvInf = inferred
	}
}

// anomaly records a discarded event.
func (r *run) anomaly(ev event.Event, reason string) {
	r.anoms = append(r.anoms, flow.Anomaly{Event: ev, Reason: reason})
}

// hintsFromEvent derives the upstream/downstream peer hints an inference can
// reuse from the event that motivated it: a sender-side event names the
// downstream peer, a receiver-side event the upstream one.
func hintsFromEvent(ev event.Event, self event.NodeID) (up, down event.NodeID) {
	up, down = event.NoNode, event.NoNode
	if ev.Type == event.Gen {
		return
	}
	if ev.Type.SenderSide() {
		if ev.Sender == self {
			down = ev.Receiver
		}
		return
	}
	if ev.Receiver == self {
		up = ev.Sender
	}
	return
}

// budgetInfer accounts one inferred event against the per-packet MaxInferred
// budget, recording the exhaustion anomaly once. Every inference — including
// the retargeted transmissions of checkPeerBinding — must pass through it.
func (r *run) budgetInfer(n event.NodeID) bool {
	if r.infers >= r.e.opts.MaxInferred {
		if !r.inferCapHit {
			r.inferCapHit = true
			r.anomaly(event.Event{Node: n, Packet: r.pkt}, "inference budget exhausted")
		}
		return false
	}
	r.infers++
	return true
}

// emitInferred synthesizes the lost event for one normal transition edge at
// visit v, resolving the peer from hints or sibling engines, recursively
// satisfying the inferred event's own prerequisite, and applying it.
func (r *run) emitInferred(v *visit, step fsm.Transition, up, down event.NodeID, depth int) {
	if !r.budgetInfer(v.node) {
		return
	}
	peer := event.NoNode
	switch step.On.Self {
	case fsm.SelfSender:
		peer = down
		if peer == event.NoNode && !step.On.Type.NodeLocal() {
			peer = r.findBroadcaster(v.node)
		}
	case fsm.SelfReceiver:
		peer = up
		if peer == event.NoNode {
			peer = r.findUpstream(v.node)
		}
		if peer == event.NoNode {
			peer = r.findBroadcaster(v.node)
		}
	}
	ev := step.On.Instantiate(v.node, peer, r.pkt)
	// An inferred event carries prerequisites of its own (the paper's
	// cascading inference, Figure 3a).
	r.satisfyPrereq(ev, depth)
	r.apply(v, step, ev, true)
}

// findUpstream scans sibling engines for a node whose engine has passed Sent
// toward n — the only candidate sender of an inferred reception at n. The
// scan runs backward over creation order (the forward scan kept the LAST
// match), exiting at the first hit.
func (r *run) findUpstream(n event.NodeID) event.NodeID {
	for i := len(r.all) - 1; i >= 0; i-- {
		v := r.all[i]
		if v.node == n || !v.started || v.peer != n {
			continue
		}
		sent := v.graph.SentState()
		if sent == fsm.NoState {
			continue
		}
		if v.graph.Passed(v.cur, sent) {
			return v.node
		}
	}
	return event.NoNode
}

// anyVisitPassed reports whether any visit of node index ni has passed one of
// the self-prerequisite states for event type t (resolved per visit graph).
func (r *run) anyVisitPassed(ni int, t event.Type) bool {
	for _, v := range r.byNode[ni] {
		if !v.started {
			continue
		}
		rp := v.gp.rule(t, true)
		for _, s := range rp.states {
			if v.graph.Passed(v.cur, s) {
				return true
			}
		}
	}
	return false
}

// ensureSelf realizes a self-prerequisite: if no visit of the node has passed
// the required state, the lost events that would have gotten it there are
// inferred into the current (or a suitably-templated fresh) visit.
func (r *run) ensureSelf(ni int, ev event.Event, depth int) {
	if r.anyVisitPassed(ni, ev.Type) {
		return
	}
	v := r.visitFor(ni)
	path, v2, ok := r.inferRoute(ni, v, ev.Type, true)
	if !ok {
		r.anomaly(ev, "self-prerequisite cannot be inferred at "+r.nodes[ni].String())
		return
	}
	for _, step := range path {
		r.emitInferred(v2, step, event.NoNode, event.NoNode, depth)
	}
}

// findBroadcaster resolves the peer of an inferred group-protocol event: the
// unique sibling engine that has passed Announced (the seeder of a
// dissemination round). Collection-protocol graphs have no Announced state,
// so this never fires for them.
func (r *run) findBroadcaster(n event.NodeID) event.NodeID {
	found := event.NoNode
	for _, v := range r.all {
		if v.node == n || !v.started {
			continue
		}
		ann := v.graph.AnnouncedState()
		if ann == fsm.NoState || !v.graph.Passed(v.cur, ann) {
			continue
		}
		if found != event.NoNode && found != v.node {
			return event.NoNode // ambiguous
		}
		found = v.node
	}
	return found
}

// satisfyPrereq enforces Definition 4.1 for ev: the peer engine must have
// passed the prerequisite state; if it has not, it is driven there by
// consuming its remaining logged events and, failing that, by inferring the
// lost events along the normal path.
func (r *run) satisfyPrereq(ev event.Event, depth int) {
	if r.e.opts.DisableInter {
		return
	}
	if int(ev.Type) >= event.NumTypes || !r.e.interPrereq[ev.Type].ok {
		return
	}
	pr := &r.e.interPrereq[ev.Type].pr
	if pr.Group {
		// Many-to-1 prerequisite (Figure 3(c)/(d)): every group member
		// except the event's own node must be driven into place.
		for _, member := range r.e.opts.Group {
			if member != ev.Node {
				r.drive(member, ev, depth+1)
			}
		}
		return
	}
	var peer event.NodeID
	switch pr.PeerRole {
	case fsm.SelfSender:
		peer = ev.Sender
	case fsm.SelfReceiver:
		peer = ev.Receiver
	}
	if peer == event.NoNode || peer == ev.Node {
		return // unresolved endpoint: nothing to drive
	}
	r.drive(peer, ev, depth+1)
}

// passedAny reports whether the visit has passed any acceptable state.
func passedAny(v *visit, states []fsm.StateID) bool {
	for _, s := range states {
		if v.graph.Passed(v.cur, s) {
			return true
		}
	}
	return false
}

// drive advances node p's engine until it has passed the prerequisite state
// demanded by event ev (logged elsewhere). Logged events are consumed first;
// when they run out the remaining normal path is inferred. A re-entrancy
// guard keeps cyclic prerequisites from recursing forever.
func (r *run) drive(p event.NodeID, ev event.Event, depth int) {
	if depth > r.e.opts.MaxDepth {
		r.anomaly(ev, "prerequisite recursion depth exceeded")
		return
	}
	pi := r.idx(p)
	t := ev.Type
	v := r.visitFor(pi)
	wantPeer := ev.Node // the prerequisite operation pointed at ev's logger
	if passedAny(v, v.gp.rule(t, false).states) {
		r.checkPeerBinding(v, t, wantPeer)
		return
	}
	if r.driving[pi] || r.processing[pi] > 0 {
		// Already driving p higher up the stack, or p's own event is
		// mid-processing: consuming p's later events now would violate
		// its log order. Let the outer frame finish.
		return
	}
	r.driving[pi] = true
	defer func() { r.driving[pi] = false }()

	// First consume p's own logged events — they are better evidence than
	// inference (and the paper's step 1 does exactly this: "recursively
	// process events on the node i until reaching state s_x").
	for !r.queues[pi].empty() {
		v = r.current[pi]
		if passedAny(v, v.gp.rule(t, false).states) {
			r.checkPeerBinding(v, t, wantPeer)
			return
		}
		r.step(pi, depth+1)
	}
	v = r.current[pi]
	if passedAny(v, v.gp.rule(t, false).states) {
		r.checkPeerBinding(v, t, wantPeer)
		return
	}
	// Out of logged evidence: infer the lost events along the normal path.
	up, down := event.NoNode, event.NoNode
	if p == ev.Sender {
		down = ev.Receiver
	} else if p == ev.Receiver {
		up = ev.Sender
	}
	path, v2, ok := r.inferRoute(pi, v, t, false)
	if !ok {
		r.anomaly(ev, "prerequisite cannot be inferred at peer "+p.String())
		return
	}
	v = v2
	for _, step := range path {
		r.emitInferred(v, step, up, down, depth)
	}
	r.checkPeerBinding(v, t, wantPeer)
}

// inferRoute finds the normal path that realizes the prerequisite for event
// type t (self-prerequisite when self is set) at node index ni, rotating to
// a fresh visit when the current one is stuck in a terminal drop and falling
// back to the forwarding template for an origin caught in a loop. It returns
// the path and the visit it applies to.
func (r *run) inferRoute(ni int, v *visit, t event.Type, self bool) ([]fsm.Transition, *visit, bool) {
	if inferTo := v.gp.rule(t, self).inferTo; inferTo != fsm.NoState {
		if path, ok := v.graph.PathTo(v.cur, inferTo); ok {
			return path, v, true
		}
		// Current visit cannot reach the prerequisite (terminal drop):
		// the prerequisite belongs to a fresh visit of the packet at p.
		nv := r.rotate(ni, v.gp)
		if path, ok := nv.graph.PathTo(nv.cur, inferTo); ok {
			return path, nv, true
		}
		v = nv
	}
	// The node's own template does not know the prerequisite state at all
	// (an origin asked for Received): use the forwarding template.
	if alt := r.altGraph(r.nodes[ni]); alt != nil && alt.graph != v.graph {
		if inferTo := alt.rule(t, self).inferTo; inferTo != fsm.NoState {
			nv := r.rotate(ni, alt)
			if path, ok := nv.graph.PathTo(nv.cur, inferTo); ok {
				return path, nv, true
			}
		}
	}
	return nil, v, false
}

// checkPeerBinding reconciles a satisfied Sent prerequisite with the visit's
// bound transmission target: if the engine last transmitted to a different
// node, a retargeted (lost) transmission is inferred over the Sent self-loop.
// Only unicast-transmission prerequisites bind a peer; a broadcaster
// (Announced) serves any number of receivers. The retargeted transmission is
// an inference like any other and is charged against the MaxInferred budget.
func (r *run) checkPeerBinding(v *visit, t event.Type, wantPeer event.NodeID) {
	if !r.e.sentBound[t] {
		return // only unicast transmission targets are bound
	}
	if v.peer == event.NoNode || wantPeer == event.NoNode || v.peer == wantPeer {
		if v.peer == event.NoNode && wantPeer != event.NoNode {
			v.peer = wantPeer
		}
		return
	}
	l := fsm.On(event.Trans, fsm.SelfSender)
	if tr, ok := v.graph.NormalNext(v.cur, l); ok {
		if !r.budgetInfer(v.node) {
			return
		}
		ev := l.Instantiate(v.node, wantPeer, r.pkt)
		r.apply(v, tr, ev, true)
	} else {
		r.anomaly(l.Instantiate(v.node, wantPeer, r.pkt),
			"peer binding mismatch: engine sent to "+v.peer.String())
	}
}
