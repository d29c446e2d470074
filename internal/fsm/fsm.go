// Package fsm implements the finite-state-machine inference engines of
// REFILL (Section IV of the paper).
//
// A Graph is the paper's directed transition graph G = (S, T, E): states S,
// directed edges T, and the event labels E on the edges. Transitions declared
// by the protocol author are "normal transitions". After the graph is
// finalized, the package derives the paper's intra-node transitions: for an
// event label e and a state s_x, if among all normal transitions carrying e
// there is exactly one target state s_jc reachable from s_x, an intra-node
// transition s_x --e--> s_jc is added, and the normal-path events skipped by
// the jump become inferable lost events.
//
// Inter-node connections (Definition 4.1, prerequisite transitions) are
// expressed as Prereq entries in a Protocol: event types whose occurrence
// implies the peer node's engine must already have passed a given state.
package fsm

import (
	"errors"
	"fmt"
	"sort"
)

// StateID indexes a state inside one Graph.
type StateID int

// NoState is returned by lookups that find nothing.
const NoState StateID = -1

// State is a vertex of the transition graph.
type State struct {
	Name string
	// Terminal marks states with no meaningful continuation for the
	// current packet visit; an event arriving at a terminal state starts
	// a new visit (packet revisiting the node, e.g. a routing loop).
	Terminal bool
}

// Kind distinguishes declared transitions from derived ones.
type Kind uint8

const (
	// Normal transitions come from the original protocol FSM.
	Normal Kind = iota
	// Intra transitions are derived per Section IV-B and are taken only
	// when no normal transition matches (they imply lost events).
	Intra
)

func (k Kind) String() string {
	if k == Intra {
		return "intra"
	}
	return "normal"
}

// Transition is one edge of the graph.
type Transition struct {
	From, To StateID
	On       Label
	Kind     Kind
	// InferPath is set on Intra transitions: the sequence of normal
	// transitions whose events were skipped by the jump and must be
	// emitted as inferred lost events (the final edge of the underlying
	// normal path carries the triggering event itself and is excluded).
	InferPath []Transition
}

// Graph is a finalized protocol FSM. Build one with NewBuilder; a zero Graph
// is not usable.
type Graph struct {
	name   string
	states []State
	byName map[string]StateID
	start  StateID
	normal []Transition
	intra  []Transition
	reach  [][]bool // reach[a][b]: a ≻ b via ≥1 normal transitions
	labels []Label  // distinct labels, deterministic order

	// Dense dispatch: transition lookups are on the engine's per-event hot
	// path, so Finalize indexes the transitions in row-major tables
	// addressed by state * labelWidth + labelSlot(label). -1 = none.
	labelWidth int
	normalTab  []int32 // index into normal
	intraTab   []int32 // index into intra
	// pathTab[a][b] is the memoized shortest normal-transition path a -> b
	// (nil when none, or when a == b). Shared slices: callers must not
	// mutate what PathTo returns.
	pathTab [][][]Transition
	// sent / announced cache the StateIDs the engine resolves on every
	// upstream / broadcaster scan (NoState when the graph lacks them).
	sent      StateID
	announced StateID
	// stateIdx maps each StateID to the process-global interned index of
	// its name (see StateIndex), letting cross-graph consumers match
	// states without string compares.
	stateIdx []StateIndex
}

// labelSlot maps a label to its column in the dense dispatch tables: three
// slots per event type, one per Role value (zero Role included). Callers must
// reject Role values outside [0,2] first — slot arithmetic on them would
// alias a neighboring event type's columns (Builder.Transition does for
// declared labels, normalAt/intraAt for probes).
func labelSlot(l Label) int { return int(l.Type)*3 + int(l.Self) }

// normalAt / intraAt are the dense lookups behind Next and friends. A slot
// outside the table belongs to an event type the graph never mentions, and an
// out-of-range Role must miss rather than alias (the coherence lint and
// FuzzFinalize probe exactly these).
func (g *Graph) normalAt(s StateID, l Label) int32 {
	if l.Self < 0 || l.Self > 2 {
		return -1
	}
	slot := labelSlot(l)
	if slot < 0 || slot >= g.labelWidth {
		return -1
	}
	return g.normalTab[int(s)*g.labelWidth+slot]
}

func (g *Graph) intraAt(s StateID, l Label) int32 {
	if l.Self < 0 || l.Self > 2 {
		return -1
	}
	slot := labelSlot(l)
	if slot < 0 || slot >= g.labelWidth {
		return -1
	}
	return g.intraTab[int(s)*g.labelWidth+slot]
}

// Name returns the graph's name (e.g. "ctp-forward").
func (g *Graph) Name() string { return g.name }

// Start returns the initial state.
func (g *Graph) Start() StateID { return g.start }

// NumStates returns the number of states.
func (g *Graph) NumStates() int { return len(g.states) }

// State returns the state record for id.
func (g *Graph) State(id StateID) State { return g.states[id] }

// StateByName resolves a state name, returning NoState if absent. Names are
// the cross-template currency used by prerequisite links, since different
// node roles (origin, forwarder, sink) run different graphs.
func (g *Graph) StateByName(name string) StateID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return NoState
}

// Terminal reports whether id is a terminal state.
func (g *Graph) Terminal(id StateID) bool { return g.states[id].Terminal }

// Reachable reports the paper's s_a ≻ s_b: a transition sequence of length
// at least one leads from a to b over normal transitions.
func (g *Graph) Reachable(a, b StateID) bool { return g.reach[a][b] }

// Passed reports whether an engine currently at state s has necessarily been
// at (or is at) state target earlier in this visit. It holds when s == target
// or when s is reachable FROM target. (For the linear protocol templates in
// this package every state lies on a single spine, so reachability implies
// the path actually ran through target.)
func (g *Graph) Passed(s, target StateID) bool {
	return s == target || g.Reachable(target, s)
}

// Next returns the transition to take at state s on label l: a normal
// transition if one exists, otherwise a derived intra-node transition.
// The boolean reports whether any transition matched.
func (g *Graph) Next(s StateID, l Label) (Transition, bool) {
	if i := g.normalAt(s, l); i >= 0 {
		return g.normal[i], true
	}
	if i := g.intraAt(s, l); i >= 0 {
		return g.intra[i], true
	}
	return Transition{}, false
}

// NormalNext returns only the normal transition at (s, l), if any.
func (g *Graph) NormalNext(s StateID, l Label) (Transition, bool) {
	if i := g.normalAt(s, l); i >= 0 {
		return g.normal[i], true
	}
	return Transition{}, false
}

// IntraNext returns only the derived intra transition at (s, l), if any.
func (g *Graph) IntraNext(s StateID, l Label) (Transition, bool) {
	if i := g.intraAt(s, l); i >= 0 {
		return g.intra[i], true
	}
	return Transition{}, false
}

// SentState returns the StateID of the canonical Sent state, NoState if the
// graph has none. Cached at Finalize: the engine consults it on every
// upstream-sender scan.
func (g *Graph) SentState() StateID { return g.sent }

// AnnouncedState returns the StateID of the canonical Announced state,
// NoState if the graph has none.
func (g *Graph) AnnouncedState() StateID { return g.announced }

// PathTo returns the shortest normal-transition path from state a to state b
// (nil, false if none). It is the inference route used when a prerequisite
// forces an engine forward with no logged events available: the path's
// events become inferred lost events. The returned slice is memoized and
// shared; callers must not mutate it.
func (g *Graph) PathTo(a, b StateID) ([]Transition, bool) {
	if a == b {
		return nil, true
	}
	p := g.pathTab[a][b]
	return p, p != nil
}

// Labels returns the distinct transition labels of the graph, sorted at
// Finalize by (Type, Self).
func (g *Graph) Labels() []Label { return g.labels }

// NormalTransitions returns the declared transitions, sorted at Finalize by
// (From, label, To) so output derived from the slice is stable across runs
// regardless of declaration order (shared slice; callers must not mutate).
func (g *Graph) NormalTransitions() []Transition { return g.normal }

// IntraTransitions returns the derived intra-node transitions, ordered by
// (From, label) — deriveIntra visits states in ID order and labels in sorted
// order (shared slice; callers must not mutate).
func (g *Graph) IntraTransitions() []Transition { return g.intra }

// Builder assembles a Graph. Typical use:
//
//	b := fsm.NewBuilder("ctp-forward")
//	start := b.State("Start", false)
//	recvd := b.State("Received", false)
//	b.Start(start)
//	b.Transition(start, recvd, fsm.On(event.Recv, fsm.SelfReceiver))
//	g, err := b.Finalize()
type Builder struct {
	g    *Graph
	errs []error
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{
		name:   name,
		byName: make(map[string]StateID),
		start:  NoState,
	}}
}

// State declares a state and returns its ID. Duplicate names are an error
// reported by Finalize.
func (b *Builder) State(name string, terminal bool) StateID {
	if _, dup := b.g.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("fsm: duplicate state %q in %q", name, b.g.name))
	}
	id := StateID(len(b.g.states))
	b.g.states = append(b.g.states, State{Name: name, Terminal: terminal})
	b.g.byName[name] = id
	return id
}

// Start sets the initial state.
func (b *Builder) Start(id StateID) { b.g.start = id }

// Transition declares a normal transition.
func (b *Builder) Transition(from, to StateID, on Label) {
	if int(from) >= len(b.g.states) || int(to) >= len(b.g.states) || from < 0 || to < 0 {
		b.errs = append(b.errs, fmt.Errorf("fsm: transition with unknown state in %q", b.g.name))
		return
	}
	if on.Self > SelfReceiver {
		b.errs = append(b.errs, fmt.Errorf("fsm: transition on %v in %q has an out-of-range role", on, b.g.name))
		return
	}
	b.g.normal = append(b.g.normal, Transition{From: from, To: to, On: on, Kind: Normal})
}

// Finalize validates the graph, indexes its transitions, computes
// reachability and shortest paths, and derives the intra-node transitions per
// Section IV-B. Malformed graphs — duplicate or unknown states, out-of-range
// roles, no start state, nondeterministic (state, label) pairs, states
// unreachable from the start — yield a descriptive error (all problems
// joined, never a panic). Normal transitions are sorted into canonical
// (From, label, To) order first, so every derived artifact — label order,
// intra transitions, memoized paths, dispatch tables — is independent of
// declaration order.
func (b *Builder) Finalize() (*Graph, error) {
	g := b.g
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if len(g.states) == 0 {
		return nil, fmt.Errorf("fsm: graph %q has no states", g.name)
	}
	if g.start == NoState {
		return nil, fmt.Errorf("fsm: graph %q has no start state", g.name)
	}
	sort.SliceStable(g.normal, func(i, j int) bool {
		a, c := g.normal[i], g.normal[j]
		if a.From != c.From {
			return a.From < c.From
		}
		if a.On.Type != c.On.Type {
			return a.On.Type < c.On.Type
		}
		if a.On.Self != c.On.Self {
			return a.On.Self < c.On.Self
		}
		return a.To < c.To
	})
	g.collectLabels()
	g.allocTables()
	// Index normal transitions; the engine is deterministic, so at most
	// one normal transition per (state, label).
	var errs []error
	for i, tr := range g.normal {
		slot := &g.normalTab[int(tr.From)*g.labelWidth+labelSlot(tr.On)]
		if *slot >= 0 {
			errs = append(errs, fmt.Errorf("fsm: graph %q nondeterministic at state %q on %v",
				g.name, g.states[tr.From].Name, tr.On))
			continue
		}
		*slot = int32(i)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	g.buildPaths()
	for s := range g.states {
		if StateID(s) != g.start && !g.reach[g.start][s] {
			errs = append(errs, fmt.Errorf("fsm: graph %q state %q unreachable from start state %q",
				g.name, g.states[s].Name, g.states[g.start].Name))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	g.deriveIntra()
	g.buildStateIndexes()
	g.sent = g.StateByName(StateSent)
	g.announced = g.StateByName(StateAnnounced)
	return g, nil
}

// allocTables sizes the dense dispatch tables to the widest event type among
// the labels (intra transitions reuse the same labels) and clears every slot.
func (g *Graph) allocTables() {
	maxType := 0
	for _, l := range g.labels {
		if int(l.Type) > maxType {
			maxType = int(l.Type)
		}
	}
	g.labelWidth = (maxType + 1) * 3
	size := len(g.states) * g.labelWidth
	g.normalTab = make([]int32, size)
	g.intraTab = make([]int32, size)
	for i := range g.normalTab {
		g.normalTab[i] = -1
		g.intraTab[i] = -1
	}
}

// buildPaths runs one breadth-first search per source state over the normal
// transitions in canonical order. Each search fills the source's
// reachability row — the source itself only when a transition re-enters it —
// and its row of memoized shortest paths, making PathTo a table read: the
// first transition to discover a state extends the path to the state it
// leaves, so among equally short paths the canonically earliest wins.
func (g *Graph) buildPaths() {
	n := len(g.states)
	g.reach = make([][]bool, n)
	g.pathTab = make([][][]Transition, n)
	cells := make([]bool, n*n)
	paths := make([][]Transition, n*n)
	queue := make([]StateID, 0, n)
	for a := range g.states {
		src := StateID(a)
		row := cells[a*n : (a+1)*n : (a+1)*n]
		pathRow := paths[a*n : (a+1)*n : (a+1)*n]
		queue = append(queue[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, tr := range g.normal {
				if tr.From != cur {
					continue
				}
				if !row[tr.To] && tr.To != src {
					p := make([]Transition, len(pathRow[cur])+1)
					copy(p, pathRow[cur])
					p[len(p)-1] = tr
					pathRow[tr.To] = p
					queue = append(queue, tr.To)
				}
				row[tr.To] = true
			}
		}
		g.reach[a], g.pathTab[a] = row, pathRow
	}
}

// collectLabels gathers the distinct labels in deterministic order.
func (g *Graph) collectLabels() {
	seen := make(map[Label]bool)
	for _, tr := range g.normal {
		if !seen[tr.On] {
			seen[tr.On] = true
			g.labels = append(g.labels, tr.On)
		}
	}
	sort.Slice(g.labels, func(i, j int) bool {
		a, b := g.labels[i], g.labels[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Self < b.Self
	})
}

// deriveIntra adds the paper's intra-node transitions. For each state s_x and
// each label e with no normal transition out of s_x: collect the target
// states of every normal transition labeled e; if exactly one distinct target
// s_jc is reachable from s_x, add s_x --e--> s_jc with the skipped normal
// path recorded for lost-event inference.
func (g *Graph) deriveIntra() {
	for sx := StateID(0); int(sx) < len(g.states); sx++ {
		for _, l := range g.labels {
			slot := int(sx)*g.labelWidth + labelSlot(l)
			if g.normalTab[slot] >= 0 {
				continue // normal transition exists; no jump needed
			}
			// Distinct reachable targets of transitions labeled l.
			sjc := NoState
			ambiguous := false
			for _, tr := range g.normal {
				if tr.On == l && g.Reachable(sx, tr.To) && tr.To != sjc {
					if sjc != NoState {
						ambiguous = true
						break
					}
					sjc = tr.To
				}
			}
			if sjc == NoState || ambiguous {
				continue // none or ambiguous: no intra transition
			}
			// The inferred lost events are the normal path from s_x
			// to the source of a transition (s_ic --l--> s_jc); pick
			// the shortest such approach deterministically.
			var best []Transition
			found := false
			for _, tr := range g.normal {
				if tr.On != l || tr.To != sjc {
					continue
				}
				path, ok := g.PathTo(sx, tr.From)
				if !ok {
					continue
				}
				if !found || len(path) < len(best) {
					best, found = path, true
				}
			}
			if !found {
				// The target is reachable but only via routes that
				// do not end with an l-labeled edge (e.g. through a
				// different label into the same state). The event
				// could not have been generated on the way, so no
				// jump is justified.
				continue
			}
			tr := Transition{From: sx, To: sjc, On: l, Kind: Intra, InferPath: best}
			g.intraTab[slot] = int32(len(g.intra))
			g.intra = append(g.intra, tr)
		}
	}
}
