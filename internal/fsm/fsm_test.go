package fsm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
)

// buildLinear builds Start -a-> M -b-> End for transition-mechanics tests.
func buildLinear(t *testing.T) (*Graph, StateID, StateID, StateID) {
	t.Helper()
	b := NewBuilder("linear")
	s := b.State("S", false)
	m := b.State("M", false)
	e := b.State("E", true)
	b.Start(s)
	b.Transition(s, m, On(event.Recv, SelfReceiver))
	b.Transition(m, e, On(event.Trans, SelfSender))
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, s, m, e
}

func TestBuilderRejectsDuplicateState(t *testing.T) {
	b := NewBuilder("dup")
	b.State("X", false)
	b.State("X", false)
	b.Start(0)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("expected duplicate-state error")
	}
}

func TestBuilderRejectsMissingStart(t *testing.T) {
	b := NewBuilder("nostart")
	b.State("X", false)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("expected missing-start error")
	}
}

func TestBuilderRejectsNondeterminism(t *testing.T) {
	b := NewBuilder("nondet")
	s := b.State("S", false)
	a := b.State("A", false)
	c := b.State("B", false)
	b.Start(s)
	l := On(event.Recv, SelfReceiver)
	b.Transition(s, a, l)
	b.Transition(s, c, l)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("expected nondeterminism error")
	}
}

func TestBuilderRejectsUnknownState(t *testing.T) {
	b := NewBuilder("unknown")
	s := b.State("S", false)
	b.Start(s)
	b.Transition(s, StateID(99), On(event.Recv, SelfReceiver))
	if _, err := b.Finalize(); err == nil {
		t.Fatal("expected unknown-state error")
	}
}

// TestBuilderRejectsOutOfRangeRole pins the declaration-side role guard: a
// Role above SelfReceiver would index past its event type's three dispatch
// columns. Declared from the last state it ran off the table (a panic);
// declared from an earlier state it landed in the next state's row, where
// NormalNext(S1, invalid@0) returned the transition declared at S0.
func TestBuilderRejectsOutOfRangeRole(t *testing.T) {
	bad := On(event.Timeout, Role(3))
	for _, fromLast := range []bool{true, false} {
		b := NewBuilder("badrole")
		s0 := b.State("S0", false)
		s1 := b.State("S1", true)
		b.Start(s0)
		b.Transition(s0, s1, On(event.Recv, SelfReceiver))
		if fromLast {
			b.Transition(s1, s1, bad)
		} else {
			b.Transition(s0, s1, bad)
		}
		g, err := b.Finalize()
		if err == nil {
			tr, ok := g.NormalNext(s1, Label{})
			t.Fatalf("fromLast=%v: Finalize accepted role 3 (NormalNext(S1, %v) = %+v, %v)", fromLast, Label{}, tr, ok)
		}
		if !strings.Contains(err.Error(), "badrole") || !strings.Contains(err.Error(), "role") {
			t.Errorf("fromLast=%v: error %q does not name the graph and the role", fromLast, err)
		}
	}
}

func TestReachabilityLinear(t *testing.T) {
	g, s, m, e := buildLinear(t)
	cases := []struct {
		a, b StateID
		want bool
	}{
		{s, m, true}, {s, e, true}, {m, e, true},
		{m, s, false}, {e, s, false}, {s, s, false},
	}
	for _, c := range cases {
		if got := g.Reachable(c.a, c.b); got != c.want {
			t.Errorf("Reachable(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestReachabilitySelfLoop(t *testing.T) {
	b := NewBuilder("loop")
	s := b.State("S", false)
	b.Start(s)
	b.Transition(s, s, On(event.Trans, SelfSender))
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Reachable(s, s) {
		t.Error("self loop should make state reachable from itself")
	}
}

func TestPassed(t *testing.T) {
	g, s, m, e := buildLinear(t)
	if !g.Passed(m, m) {
		t.Error("Passed(m,m) should hold")
	}
	if !g.Passed(e, m) {
		t.Error("an engine at E has necessarily passed M")
	}
	if g.Passed(s, m) {
		t.Error("an engine at Start has not passed M")
	}
}

func TestPathTo(t *testing.T) {
	g, s, m, e := buildLinear(t)
	path, ok := g.PathTo(s, e)
	if !ok || len(path) != 2 {
		t.Fatalf("PathTo(S,E): ok=%v len=%d", ok, len(path))
	}
	if path[0].From != s || path[0].To != m || path[1].To != e {
		t.Errorf("bad path %+v", path)
	}
	if _, ok := g.PathTo(e, s); ok {
		t.Error("PathTo(E,S) should fail")
	}
	if p, ok := g.PathTo(m, m); !ok || len(p) != 0 {
		t.Error("PathTo(m,m) should be the empty path")
	}
}

func TestPathToPrefersShortest(t *testing.T) {
	// S -recv-> A -trans-> E  and  S -dup-> B -gen-> C -trans2?-> ...
	// Build a diamond where two routes reach E; shortest must win.
	b := NewBuilder("diamond")
	s := b.State("S", false)
	a := b.State("A", false)
	c1 := b.State("B", false)
	c2 := b.State("C", false)
	e := b.State("E", true)
	b.Start(s)
	b.Transition(s, a, On(event.Recv, SelfReceiver))
	b.Transition(a, e, On(event.Trans, SelfSender))
	b.Transition(s, c1, On(event.Dup, SelfReceiver))
	b.Transition(c1, c2, On(event.Gen, SelfSender))
	b.Transition(c2, e, On(event.Timeout, SelfSender))
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	path, ok := g.PathTo(s, e)
	if !ok || len(path) != 2 {
		t.Fatalf("want 2-edge path, got ok=%v len=%d", ok, len(path))
	}
}

func TestNextPrefersNormalOverIntra(t *testing.T) {
	g, err := forwardGraph(false)
	if err != nil {
		t.Fatal(err)
	}
	received := g.StateByName(StateReceived)
	tr, ok := g.Next(received, On(event.Trans, SelfSender))
	if !ok || tr.Kind != Normal {
		t.Fatalf("Next at Received on trans: ok=%v kind=%v", ok, tr.Kind)
	}
	start := g.Start()
	tr, ok = g.Next(start, On(event.Trans, SelfSender))
	if !ok || tr.Kind != Intra {
		t.Fatalf("Next at Start on trans: ok=%v kind=%v, want intra", ok, tr.Kind)
	}
}

// intraSpec describes one expected derived intra transition.
type intraSpec struct {
	from, to string
	on       Label
	infer    []event.Type // event types along InferPath
}

func checkIntra(t *testing.T, g *Graph, want []intraSpec) {
	t.Helper()
	if got, wantN := len(g.IntraTransitions()), len(want); got != wantN {
		for _, tr := range g.IntraTransitions() {
			t.Logf("  intra: %s --%v--> %s (infer %d)",
				g.State(tr.From).Name, tr.On, g.State(tr.To).Name, len(tr.InferPath))
		}
		t.Fatalf("graph %q: %d intra transitions, want %d", g.Name(), got, wantN)
	}
	for _, w := range want {
		from := g.StateByName(w.from)
		tr, ok := g.IntraNext(from, w.on)
		if !ok {
			t.Errorf("graph %q: missing intra %s --%v-->", g.Name(), w.from, w.on)
			continue
		}
		if g.State(tr.To).Name != w.to {
			t.Errorf("graph %q: intra %s --%v--> %s, want -> %s",
				g.Name(), w.from, w.on, g.State(tr.To).Name, w.to)
		}
		if len(tr.InferPath) != len(w.infer) {
			t.Errorf("graph %q: intra %s --%v-->: infer path len %d, want %d",
				g.Name(), w.from, w.on, len(tr.InferPath), len(w.infer))
			continue
		}
		for i, ty := range w.infer {
			if tr.InferPath[i].On.Type != ty {
				t.Errorf("graph %q: intra %s --%v--> infer[%d] = %v, want %v",
					g.Name(), w.from, w.on, i, tr.InferPath[i].On.Type, ty)
			}
		}
	}
}

func TestForwardGraphIntraDerivation(t *testing.T) {
	g, err := forwardGraph(false)
	if err != nil {
		t.Fatal(err)
	}
	checkIntra(t, g, []intraSpec{
		{StateStart, StateSent, On(event.Trans, SelfSender), []event.Type{event.Recv}},
		{StateStart, StateAcked, On(event.AckRecvd, SelfSender), []event.Type{event.Recv, event.Trans}},
		{StateStart, StateTimedOut, On(event.Timeout, SelfSender), []event.Type{event.Recv, event.Trans}},
		{StateReceived, StateAcked, On(event.AckRecvd, SelfSender), []event.Type{event.Trans}},
		{StateReceived, StateTimedOut, On(event.Timeout, SelfSender), []event.Type{event.Trans}},
	})
}

func TestOriginGraphIntraDerivationWithGen(t *testing.T) {
	g, err := originGraph(true, false)
	if err != nil {
		t.Fatal(err)
	}
	checkIntra(t, g, []intraSpec{
		{StateStart, StateSent, On(event.Trans, SelfSender), []event.Type{event.Gen}},
		{StateStart, StateAcked, On(event.AckRecvd, SelfSender), []event.Type{event.Gen, event.Trans}},
		{StateStart, StateTimedOut, On(event.Timeout, SelfSender), []event.Type{event.Gen, event.Trans}},
		{StateHas, StateAcked, On(event.AckRecvd, SelfSender), []event.Type{event.Trans}},
		{StateHas, StateTimedOut, On(event.Timeout, SelfSender), []event.Type{event.Trans}},
	})
}

func TestOriginGraphIntraDerivationNoGen(t *testing.T) {
	g, err := originGraph(false, false)
	if err != nil {
		t.Fatal(err)
	}
	checkIntra(t, g, []intraSpec{
		{StateStart, StateAcked, On(event.AckRecvd, SelfSender), []event.Type{event.Trans}},
		{StateStart, StateTimedOut, On(event.Timeout, SelfSender), []event.Type{event.Trans}},
	})
}

func TestSinkGraphHasNoIntraTransitions(t *testing.T) {
	g, err := sinkGraph()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.IntraTransitions()); n != 0 {
		t.Errorf("sink graph has %d intra transitions, want 0", n)
	}
}

func TestAmbiguousTargetsYieldNoIntra(t *testing.T) {
	// Two trans-labeled edges to two DISTINCT states, both reachable from
	// Start: the paper's uniqueness condition fails, so no intra edge.
	b := NewBuilder("ambig")
	s := b.State("S", false)
	a := b.State("A", false)
	c := b.State("B", false)
	x := b.State("X", true)
	y := b.State("Y", true)
	b.Start(s)
	b.Transition(s, a, On(event.Recv, SelfReceiver))
	b.Transition(s, c, On(event.Dup, SelfReceiver))
	b.Transition(a, x, On(event.Trans, SelfSender))
	b.Transition(c, y, On(event.Trans, SelfSender))
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.IntraNext(s, On(event.Trans, SelfSender)); ok {
		t.Error("ambiguous targets must not produce an intra transition")
	}
}

func TestUnreachableTargetYieldsNoIntra(t *testing.T) {
	// A trans edge exists but its target is not reachable from E.
	g, _, _, e := buildLinear(t)
	if _, ok := g.IntraNext(e, On(event.Trans, SelfSender)); ok {
		t.Error("unreachable target must not produce an intra transition")
	}
}

func TestUniqueTargetAmongUnreachableOnes(t *testing.T) {
	// Label appears on edges to two distinct states but only one target is
	// reachable from the probe state: the unique reachable one wins. The
	// probe is a mid-chain state P; the second trans edge lives on a branch
	// P cannot reach (all states stay reachable from Start, which Finalize
	// now requires).
	b := NewBuilder("partial")
	s := b.State("S", false)
	p := b.State("P", false)
	a := b.State("A", false)
	x := b.State("X", true)
	o := b.State("Other", false)
	y := b.State("Y", true)
	b.Start(s)
	b.Transition(s, p, On(event.Recv, SelfReceiver))
	b.Transition(p, a, On(event.Gen, SelfSender))
	b.Transition(a, x, On(event.Trans, SelfSender))
	b.Transition(s, o, On(event.Dup, SelfReceiver))
	b.Transition(o, y, On(event.Trans, SelfSender)) // y not reachable from p
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := g.IntraNext(p, On(event.Trans, SelfSender))
	if !ok || tr.To != x {
		t.Fatalf("want intra P --trans--> X, got ok=%v to=%v", ok, tr.To)
	}
	if len(tr.InferPath) != 1 || tr.InferPath[0].On.Type != event.Gen {
		t.Errorf("infer path should be [gen], got %+v", tr.InferPath)
	}
}

func TestLabelFor(t *testing.T) {
	pkt := event.PacketID{Origin: 1, Seq: 9}
	cases := []struct {
		e    event.Event
		self event.NodeID
		want Label
		ok   bool
	}{
		{event.Event{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt}, 1, On(event.Trans, SelfSender), true},
		{event.Event{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt}, 2, On(event.Recv, SelfReceiver), true},
		{event.Event{Node: 1, Type: event.Gen, Sender: 1, Packet: pkt}, 1, On(event.Gen, SelfSender), true},
		{event.Event{Node: 1, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt}, 2, Label{}, false}, // wrong node
		{event.Event{Node: 2, Type: event.Trans, Sender: 1, Receiver: 2, Packet: pkt}, 2, Label{}, false}, // trans logged off-sender
	}
	for i, c := range cases {
		got, ok := LabelFor(c.e, c.self)
		if ok != c.ok || got != c.want {
			t.Errorf("case %d: LabelFor = (%v,%v), want (%v,%v)", i, got, ok, c.want, c.ok)
		}
	}
}

func TestLabelInstantiate(t *testing.T) {
	pkt := event.PacketID{Origin: 1, Seq: 9}
	e := On(event.Recv, SelfReceiver).Instantiate(2, 1, pkt)
	want := event.Event{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2, Packet: pkt}
	if e != want {
		t.Errorf("Instantiate recv = %+v, want %+v", e, want)
	}
	g := On(event.Gen, SelfSender).Instantiate(1, event.NoNode, pkt)
	if g.Sender != 1 || g.Receiver != event.NoNode || g.Node != 1 {
		t.Errorf("Instantiate gen = %+v", g)
	}
	tr := On(event.Trans, SelfSender).Instantiate(1, 2, pkt)
	if tr.Sender != 1 || tr.Receiver != 2 {
		t.Errorf("Instantiate trans = %+v", tr)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("instantiated recv invalid: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("instantiated gen invalid: %v", err)
	}
}

func TestPeer(t *testing.T) {
	e := event.Event{Node: 2, Type: event.Recv, Sender: 1, Receiver: 2}
	if Peer(e, 2) != 1 {
		t.Error("peer of recv at receiver should be the sender")
	}
	if Peer(e, 1) != 2 {
		t.Error("peer of recv at sender should be the receiver")
	}
}

func TestDefaultCTPProtocol(t *testing.T) {
	p := DefaultCTP()
	for _, role := range []NodeRole{RoleOrigin, RoleForward, RoleSink, RoleServer} {
		if p.Graph(role) == nil {
			t.Errorf("missing graph for role %v", role)
		}
	}
	pr, ok := p.Prereq(event.Recv)
	if !ok || pr.PeerRole != SelfSender || pr.InferTo != StateSent {
		t.Errorf("recv prereq = %+v ok=%v", pr, ok)
	}
	pr, ok = p.Prereq(event.AckRecvd)
	if !ok || pr.PeerRole != SelfReceiver || pr.InferTo != StateReceived {
		t.Errorf("ack prereq = %+v ok=%v", pr, ok)
	}
	if len(pr.AnyOf) != 3 {
		t.Errorf("ack prereq should accept any PHY-reception witness, got %v", pr.AnyOf)
	}
	if _, ok := p.Prereq(event.Trans); ok {
		t.Error("trans must have no prerequisite")
	}
	if _, ok := p.Prereq(event.Gen); ok {
		t.Error("gen must have no prerequisite")
	}
}

func TestTableIIProtocolOriginSkipsGen(t *testing.T) {
	p := TableII()
	og := p.Graph(RoleOrigin)
	if og.StateByName(StateHas) != NoState {
		t.Error("TableII origin should not have a Has state")
	}
	start := og.Start()
	if _, ok := og.NormalNext(start, On(event.Trans, SelfSender)); !ok {
		t.Error("TableII origin should transition Start --trans--> Sent normally")
	}
}

func TestNewProtocolRejectsUnknownPrereqState(t *testing.T) {
	g, err := serverGraph()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewProtocol("bad", map[NodeRole]*Graph{RoleOrigin: g, RoleForward: g, RoleSink: g, RoleServer: g},
		map[event.Type]Prereq{event.Recv: {PeerRole: SelfSender, AnyOf: []string{"Nope"}, InferTo: "Nope"}})
	if err == nil || !strings.Contains(err.Error(), `"Nope"`) {
		t.Fatalf("expected unknown-state error naming \"Nope\", got %v", err)
	}
}

func TestNewProtocolRejectsEmpty(t *testing.T) {
	if _, err := NewProtocol("empty", nil, nil); err == nil {
		t.Fatal("expected error for protocol without graphs")
	}
}

// TestReachabilityMatchesBFSProperty is the independent oracle for the
// reachability matrix buildPaths fills: on random graphs, Reachable must
// equal a per-source search over the declared edges written here.
func TestReachabilityMatchesBFSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []Label{
		On(event.Recv, SelfReceiver), On(event.Trans, SelfSender),
		On(event.AckRecvd, SelfSender), On(event.Dup, SelfReceiver),
		On(event.Timeout, SelfSender), On(event.Overflow, SelfReceiver),
	}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		b := NewBuilder("rand")
		ids := make([]StateID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.State(string(rune('A'+i)), false)
		}
		b.Start(ids[0])
		type slot struct {
			from StateID
			on   Label
		}
		used := make(map[slot]bool)
		edges := rng.Intn(2 * n)
		type edge struct{ from, to StateID }
		var edgeList []edge
		for e := 0; e < edges; e++ {
			from := ids[rng.Intn(n)]
			to := ids[rng.Intn(n)]
			l := labels[rng.Intn(len(labels))]
			k := slot{from, l}
			if used[k] {
				continue
			}
			used[k] = true
			b.Transition(from, to, l)
			edgeList = append(edgeList, edge{from, to})
		}
		// Independent BFS from the start: Finalize must accept the graph
		// exactly when every state is reachable from it.
		reachFromStart := make([]bool, n)
		reachFromStart[0] = true
		for changed := true; changed; {
			changed = false
			for _, e := range edgeList {
				if reachFromStart[e.from] && !reachFromStart[e.to] {
					reachFromStart[e.to] = true
					changed = true
				}
			}
		}
		allReachable := true
		for _, r := range reachFromStart {
			allReachable = allReachable && r
		}
		g, err := b.Finalize()
		if err != nil {
			if allReachable {
				t.Fatalf("trial %d: Finalize rejected a fully reachable graph: %v", trial, err)
			}
			if !strings.Contains(err.Error(), "unreachable") {
				t.Fatalf("trial %d: want descriptive unreachable-state error, got %v", trial, err)
			}
			continue
		}
		if !allReachable {
			t.Fatalf("trial %d: Finalize accepted a graph with unreachable states", trial)
		}
		// Independent BFS from each source.
		for src := 0; src < n; src++ {
			seen := make([]bool, n)
			var stack []StateID
			for _, e := range edgeList {
				if e.from == ids[src] && !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, e.to)
				}
			}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range edgeList {
					if e.from == cur && !seen[e.to] {
						seen[e.to] = true
						stack = append(stack, e.to)
					}
				}
			}
			for dst := 0; dst < n; dst++ {
				if g.Reachable(ids[src], ids[dst]) != seen[dst] {
					t.Fatalf("trial %d: Reachable(%d,%d) = %v, BFS says %v",
						trial, src, dst, g.Reachable(ids[src], ids[dst]), seen[dst])
				}
			}
		}
	}
}

// TestIntraInferPathEndsAdjacentToTarget checks the structural invariant that
// an intra transition's InferPath leads from its From state to a state with a
// normal transition (same label) into its To state.
func TestIntraInferPathEndsAdjacentToTarget(t *testing.T) {
	for _, build := range []func() (*Graph, error){
		func() (*Graph, error) { return forwardGraph(false) },
		func() (*Graph, error) { return forwardGraph(true) },
		func() (*Graph, error) { return originGraph(true, false) },
		func() (*Graph, error) { return originGraph(false, false) },
		func() (*Graph, error) { return originGraph(true, true) },
		sinkGraph,
		serverGraph,
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range g.IntraTransitions() {
			at := tr.From
			for _, step := range tr.InferPath {
				if step.From != at {
					t.Fatalf("graph %q: infer path discontinuous", g.Name())
				}
				at = step.To
			}
			if _, ok := g.NormalNext(at, tr.On); !ok {
				t.Errorf("graph %q: infer path of %s--%v-->%s does not end adjacent to target",
					g.Name(), g.State(tr.From).Name, tr.On, g.State(tr.To).Name)
			}
		}
	}
}

// TestFinalizeErrorsAreDescriptive is the malformed-graph table: every broken
// builder yields an error (never a panic) whose message names the graph and
// the problem, and independent problems are aggregated rather than masked.
func TestFinalizeErrorsAreDescriptive(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
		want  []string // substrings the joined error must contain
	}{
		{
			name:  "empty",
			build: func() *Builder { return NewBuilder("empty") },
			want:  []string{"empty", "no states"},
		},
		{
			name: "no-start",
			build: func() *Builder {
				b := NewBuilder("nostart")
				b.State("X", true)
				return b
			},
			want: []string{"nostart", "start"},
		},
		{
			name: "duplicate-state",
			build: func() *Builder {
				b := NewBuilder("dupl")
				b.Start(b.State("X", false))
				b.State("X", true)
				return b
			},
			want: []string{"dupl", "duplicate", `"X"`},
		},
		{
			name: "unreachable-state",
			build: func() *Builder {
				b := NewBuilder("orphaned")
				b.Start(b.State("Start", true))
				b.State("Orphan", true)
				return b
			},
			want: []string{"orphaned", "unreachable", `"Orphan"`},
		},
		{
			name: "nondeterminism-aggregated",
			build: func() *Builder {
				b := NewBuilder("multi")
				s := b.State("S", false)
				a := b.State("A", true)
				c := b.State("B", true)
				b.Start(s)
				// Two independent nondeterministic pairs: both must be
				// reported in one joined error.
				b.Transition(s, a, On(event.Recv, SelfReceiver))
				b.Transition(s, c, On(event.Recv, SelfReceiver))
				b.Transition(s, a, On(event.Dup, SelfReceiver))
				b.Transition(s, c, On(event.Dup, SelfReceiver))
				return b
			},
			want: []string{"multi", "recv", "dup"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build().Finalize()
			if err == nil {
				t.Fatalf("Finalize accepted a malformed graph: %+v", g)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}
