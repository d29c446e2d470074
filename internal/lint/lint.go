// Package lint statically verifies the structural invariants REFILL's
// correctness rests on (paper §4): FSM determinism and the uniqueness
// precondition behind intra-node inference, reachability of every state,
// soundness of the cross-graph prerequisite table (Definition 4.1), and
// coherence of the tables the walk reads (dense dispatch, memoized PathTo,
// reachability) with the declared transitions.
//
// The checks run at build/CI time via cmd/refill-lint; they complement the
// dynamic tests by proving the invariants for every (state, label) pair and
// state pair exhaustively rather than for the trajectories tests happen to
// exercise.
package lint

import (
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/fsm"
)

// Check names, used in diagnostics.
const (
	CheckDeterminism  = "determinism"
	CheckReachability = "reachability"
	CheckPrereq       = "prereq"
	CheckCoherence    = "coherence"
)

// Issue is one violated invariant.
type Issue struct {
	// Check is the invariant family (determinism, reachability, prereq,
	// coherence).
	Check string
	// Subject names the graph or protocol the issue is in.
	Subject string
	// Detail pinpoints the violation.
	Detail string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: [%s] %s", i.Subject, i.Check, i.Detail)
}

// sortIssues orders issues deterministically for stable output.
func sortIssues(issues []Issue) []Issue {
	sort.SliceStable(issues, func(a, b int) bool {
		x, y := issues[a], issues[b]
		if x.Subject != y.Subject {
			return x.Subject < y.Subject
		}
		if x.Check != y.Check {
			return x.Check < y.Check
		}
		return x.Detail < y.Detail
	})
	return issues
}

// Graph verifies one finalized graph: determinism (at most one normal
// transition per (state, label) and the paper's uniqueness precondition for
// every intra-node transition), reachability (every state reachable from
// Start, every non-terminal state reaches a terminal, anchor states resolve)
// and coherence (dense tables vs. transition slices, Reachable and PathTo vs.
// a recomputation from the declared transitions).
func Graph(g *fsm.Graph) []Issue {
	var issues []Issue
	issues = append(issues, checkDeterminism(g)...)
	issues = append(issues, checkReachability(g)...)
	issues = append(issues, checkCoherence(g)...)
	return sortIssues(issues)
}

// Protocol verifies every role graph of p plus the cross-graph prerequisite
// table.
func Protocol(p *fsm.Protocol) []Issue {
	var issues []Issue
	seen := make([]*fsm.Graph, 0, 4)
	for _, role := range []fsm.NodeRole{fsm.RoleOrigin, fsm.RoleForward, fsm.RoleSink, fsm.RoleServer} {
		g := p.Graph(role)
		dup := false
		for _, s := range seen {
			dup = dup || s == g
		}
		if dup {
			continue
		}
		seen = append(seen, g)
		issues = append(issues, Graph(g)...)
	}
	issues = append(issues, checkPrereqs(p, seen)...)
	return sortIssues(issues)
}

// labelUniverse enumerates every label a dispatch table may be probed with,
// including malformed ones (zero/out-of-range Role, event types beyond
// anything the graph mentions) that must miss rather than alias.
func labelUniverse() []fsm.Label {
	var labels []fsm.Label
	for t := 0; t < event.NumTypes+2; t++ {
		for self := fsm.Role(0); self <= 3; self++ {
			labels = append(labels, fsm.Label{Type: event.Type(t), Self: self})
		}
	}
	return labels
}

// scanNormal is the ground-truth lookup: a linear scan of the declared
// transition slice. Returns all matches so determinism violations surface.
func scanNormal(g *fsm.Graph, s fsm.StateID, l fsm.Label) []fsm.Transition {
	var out []fsm.Transition
	for _, tr := range g.NormalTransitions() {
		if tr.From == s && tr.On == l {
			out = append(out, tr)
		}
	}
	return out
}

func scanIntra(g *fsm.Graph, s fsm.StateID, l fsm.Label) []fsm.Transition {
	var out []fsm.Transition
	for _, tr := range g.IntraTransitions() {
		if tr.From == s && tr.On == l {
			out = append(out, tr)
		}
	}
	return out
}

// checkDeterminism proves the intra-node inference rule's preconditions: at
// most one normal transition per (state, label), and for every (state, label)
// pair the derived intra transition exists if and only if the paper's
// exactly-one-reachable-target condition holds, with a well-formed inference
// path.
func checkDeterminism(g *fsm.Graph) []Issue {
	var issues []Issue
	name := g.Name()
	bad := func(detail string, args ...any) {
		issues = append(issues, Issue{Check: CheckDeterminism, Subject: name, Detail: fmt.Sprintf(detail, args...)})
	}
	for s := fsm.StateID(0); int(s) < g.NumStates(); s++ {
		for _, l := range labelUniverse() {
			normals := scanNormal(g, s, l)
			if len(normals) > 1 {
				bad("state %q has %d normal transitions on %v; the engine requires at most one",
					g.State(s).Name, len(normals), l)
			}
			intras := scanIntra(g, s, l)
			if len(intras) > 1 {
				bad("state %q has %d intra transitions on %v", g.State(s).Name, len(intras), l)
			}
			if len(intras) > 0 && len(normals) > 0 {
				bad("state %q has both a normal and an intra transition on %v", g.State(s).Name, l)
			}
			// The uniqueness precondition: collect distinct targets of
			// l-labeled normal edges reachable from s that are entered
			// through an l-labeled edge whose source s can reach.
			target, derivable := derivableJump(g, s, l)
			switch {
			case len(normals) > 0:
				// Normal transition shadows any jump; nothing derived.
			case derivable && len(intras) == 0:
				bad("state %q on %v: intra transition to %q is derivable but missing",
					g.State(s).Name, l, g.State(target).Name)
			case !derivable && len(intras) > 0:
				bad("state %q on %v: intra transition exists but the uniqueness precondition fails",
					g.State(s).Name, l)
			case derivable && len(intras) == 1 && intras[0].To != target:
				bad("state %q on %v: intra transition targets %q, precondition demands %q",
					g.State(s).Name, l, g.State(intras[0].To).Name, g.State(target).Name)
			}
			for _, tr := range intras {
				issues = append(issues, checkInferPath(g, tr)...)
			}
		}
	}
	return issues
}

// derivableJump decides the paper's intra-node rule for (s, l) from the
// declared transitions alone: exactly one distinct reachable target among
// l-labeled normal edges, approachable from s via a normal path ending
// adjacent to an l-labeled edge.
func derivableJump(g *fsm.Graph, s fsm.StateID, l fsm.Label) (fsm.StateID, bool) {
	target := fsm.StateID(-1)
	count := 0
	for _, tr := range g.NormalTransitions() {
		if tr.On != l || !reachableRef(g, s, tr.To) {
			continue
		}
		if tr.To != target {
			target = tr.To
			count++
		}
	}
	if count != 1 {
		return fsm.NoState, false
	}
	// An approach must exist: a normal path from s to the source of an
	// l-labeled edge into target (the edge itself carries the trigger).
	for _, tr := range g.NormalTransitions() {
		if tr.On != l || tr.To != target {
			continue
		}
		if s == tr.From || reachableRef(g, s, tr.From) {
			return target, true
		}
	}
	return fsm.NoState, false
}

// checkInferPath validates an intra transition's recorded inference path:
// contiguous from tr.From, every step a declared normal transition, ending at
// a state with a normal tr.On edge into tr.To.
func checkInferPath(g *fsm.Graph, tr fsm.Transition) []Issue {
	var issues []Issue
	bad := func(detail string, args ...any) {
		issues = append(issues, Issue{Check: CheckDeterminism, Subject: g.Name(), Detail: fmt.Sprintf(detail, args...)})
	}
	at := tr.From
	for i, step := range tr.InferPath {
		if step.From != at {
			bad("intra %q --%v--> %q: inference path discontinuous at step %d",
				g.State(tr.From).Name, tr.On, g.State(tr.To).Name, i)
			return issues
		}
		if !declared(g, step) {
			bad("intra %q --%v--> %q: inference step %d is not a declared normal transition",
				g.State(tr.From).Name, tr.On, g.State(tr.To).Name, i)
		}
		at = step.To
	}
	if !declared(g, fsm.Transition{From: at, To: tr.To, On: tr.On}) {
		bad("intra %q --%v--> %q: inference path does not end adjacent to the target",
			g.State(tr.From).Name, tr.On, g.State(tr.To).Name)
	}
	return issues
}

// declared reports whether tr's (From, On, To) is a declared normal
// transition.
func declared(g *fsm.Graph, tr fsm.Transition) bool {
	for _, n := range scanNormal(g, tr.From, tr.On) {
		if n.To == tr.To {
			return true
		}
	}
	return false
}

// isPath reports whether path is a sequence of declared normal transitions
// leading from a to b.
func isPath(g *fsm.Graph, a, b fsm.StateID, path []fsm.Transition) bool {
	at := a
	for _, step := range path {
		if step.From != at || !declared(g, step) {
			return false
		}
		at = step.To
	}
	return at == b
}

// reachableRef recomputes reachability (>= 1 normal transition) from the
// transition slice, independent of the graph's cached matrix.
func reachableRef(g *fsm.Graph, a, b fsm.StateID) bool {
	seen := make([]bool, g.NumStates())
	frontier := []fsm.StateID{a}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, tr := range g.NormalTransitions() {
			if tr.From != cur || seen[tr.To] {
				continue
			}
			if tr.To == b {
				return true
			}
			seen[tr.To] = true
			frontier = append(frontier, tr.To)
		}
	}
	return false
}

// checkReachability proves the state space is fully live: every state is
// reachable from Start, every non-terminal state can reach a terminal (no
// dead ends the engine could park in forever), the graph has a terminal at
// all, and the cached SentState/AnnouncedState anchors and the name index
// resolve consistently.
func checkReachability(g *fsm.Graph) []Issue {
	var issues []Issue
	name := g.Name()
	bad := func(detail string, args ...any) {
		issues = append(issues, Issue{Check: CheckReachability, Subject: name, Detail: fmt.Sprintf(detail, args...)})
	}
	terminals := 0
	for s := fsm.StateID(0); int(s) < g.NumStates(); s++ {
		if g.State(s).Terminal {
			terminals++
		}
		if s != g.Start() && !reachableRef(g, g.Start(), s) {
			bad("state %q is unreachable from start state %q",
				g.State(s).Name, g.State(g.Start()).Name)
		}
	}
	if terminals == 0 {
		bad("graph has no terminal state; every packet visit would stay open")
	}
	for s := fsm.StateID(0); int(s) < g.NumStates(); s++ {
		if g.State(s).Terminal {
			continue
		}
		reachesTerminal := false
		for t := fsm.StateID(0); int(t) < g.NumStates(); t++ {
			if g.State(t).Terminal && reachableRef(g, s, t) {
				reachesTerminal = true
				break
			}
		}
		if !reachesTerminal && terminals > 0 {
			bad("non-terminal state %q cannot reach any terminal state", g.State(s).Name)
		}
	}
	// Anchors: the cached StateIDs the engine's scans rely on must agree
	// with the name index, and the name index must round-trip.
	if got, want := g.SentState(), g.StateByName(fsm.StateSent); got != want {
		bad("SentState anchor is %d, name index resolves %q to %d", got, fsm.StateSent, want)
	}
	if got, want := g.AnnouncedState(), g.StateByName(fsm.StateAnnounced); got != want {
		bad("AnnouncedState anchor is %d, name index resolves %q to %d", got, fsm.StateAnnounced, want)
	}
	for s := fsm.StateID(0); int(s) < g.NumStates(); s++ {
		if got := g.StateByName(g.State(s).Name); got != s {
			bad("state name %q resolves to %d, want %d", g.State(s).Name, got, s)
		}
	}
	return issues
}

// checkCoherence holds the graph's one copy of each derived table to the
// declared transitions: for every (state, label) pair the dense dispatch
// tables must agree with a linear scan of the transition slices and Next must
// prefer normal over intra; for every state pair Reachable must match a
// recomputation, and PathTo must succeed exactly when b is reachable from a
// (or is a), with a path of declared normal steps from a to b. (That the path is the
// canonical shortest one is pinned by internal/fsm's reference-BFS test.)
func checkCoherence(g *fsm.Graph) []Issue {
	var issues []Issue
	name := g.Name()
	bad := func(detail string, args ...any) {
		issues = append(issues, Issue{Check: CheckCoherence, Subject: name, Detail: fmt.Sprintf(detail, args...)})
	}
	eq := func(a, b fsm.Transition) bool {
		if a.From != b.From || a.To != b.To || a.On != b.On || a.Kind != b.Kind || len(a.InferPath) != len(b.InferPath) {
			return false
		}
		for i := range a.InferPath {
			x, y := a.InferPath[i], b.InferPath[i]
			if x.From != y.From || x.To != y.To || x.On != y.On {
				return false
			}
		}
		return true
	}
	for s := fsm.StateID(0); int(s) < g.NumStates(); s++ {
		for _, l := range labelUniverse() {
			denseN, denseOKN := g.NormalNext(s, l)
			scanN := scanNormal(g, s, l)
			if denseOKN != (len(scanN) > 0) || (denseOKN && !eq(denseN, scanN[0])) {
				bad("state %q on %v: dense normal dispatch disagrees with the transition slice",
					g.State(s).Name, l)
			}
			denseI, denseOKI := g.IntraNext(s, l)
			scanI := scanIntra(g, s, l)
			if denseOKI != (len(scanI) > 0) || (denseOKI && !eq(denseI, scanI[0])) {
				bad("state %q on %v: dense intra dispatch disagrees with the transition slice",
					g.State(s).Name, l)
			}
			// Next must prefer normal over intra.
			next, okNext := g.Next(s, l)
			switch {
			case denseOKN && (!okNext || !eq(next, denseN)):
				bad("state %q on %v: Next does not take the normal transition", g.State(s).Name, l)
			case !denseOKN && denseOKI && (!okNext || !eq(next, denseI)):
				bad("state %q on %v: Next does not fall back to the intra transition", g.State(s).Name, l)
			case !denseOKN && !denseOKI && okNext:
				bad("state %q on %v: Next matches with nothing declared or derived", g.State(s).Name, l)
			}
		}
	}
	for a := fsm.StateID(0); int(a) < g.NumStates(); a++ {
		for b := fsm.StateID(0); int(b) < g.NumStates(); b++ {
			reach := reachableRef(g, a, b)
			if got := g.Reachable(a, b); got != reach {
				bad("Reachable(%q, %q) = %v, recomputation says %v",
					g.State(a).Name, g.State(b).Name, got, reach)
			}
			// PathTo(a, a) is the empty path.
			path, ok := g.PathTo(a, b)
			switch {
			case ok != (reach || a == b):
				bad("PathTo(%q, %q) ok=%v, recomputed reachability says %v",
					g.State(a).Name, g.State(b).Name, ok, reach)
			case ok && !isPath(g, a, b, path):
				bad("PathTo(%q, %q) is not a path of declared normal transitions from %q to %q",
					g.State(a).Name, g.State(b).Name, g.State(a).Name, g.State(b).Name)
			}
		}
	}
	return issues
}
