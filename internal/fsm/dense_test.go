package fsm

import (
	"reflect"
	"testing"

	"repro/internal/event"
)

// allProtocolGraphs gathers every distinct role template the package ships:
// the CTP variants and the dissemination protocol. The dense dispatch and
// path memoization must agree with the declared transitions and the
// reference BFS on every one of them.
func allProtocolGraphs() map[string]*Graph {
	graphs := map[string]*Graph{}
	add := func(prefix string, p *Protocol) {
		for _, role := range []NodeRole{RoleOrigin, RoleForward, RoleSink, RoleServer} {
			graphs[prefix+"/"+role.String()] = p.Graph(role)
		}
	}
	add("ctp", DefaultCTP())
	add("tableii", TableII())
	add("ctp-ext", ExtendedCTP())
	add("diss", Dissemination())
	return graphs
}

// labelUniverse enumerates every label the dispatch tables may be probed
// with, including malformed ones (zero Role, out-of-range Role, event types
// beyond anything the graphs mention) that must miss rather than alias.
func labelUniverse() []Label {
	var labels []Label
	for t := 0; t < event.NumTypes+2; t++ {
		for self := Role(0); self <= 3; self++ {
			labels = append(labels, Label{Type: event.Type(t), Self: self})
		}
	}
	return labels
}

// scan returns the index of the transition out of s on l in trs, or -1.
func scan(trs []Transition, s StateID, l Label) int {
	for i, tr := range trs {
		if tr.From == s && tr.On == l {
			return i
		}
	}
	return -1
}

// TestDenseDispatchMatchesTransitions pins the dense-table lookups behind
// Next/NormalNext/IntraNext to a linear scan of the declared and derived
// transition slices for every (state, label) pair of every protocol graph.
func TestDenseDispatchMatchesTransitions(t *testing.T) {
	for name, g := range allProtocolGraphs() {
		for s := StateID(0); int(s) < g.NumStates(); s++ {
			for _, l := range labelUniverse() {
				wantNormal := scan(g.normal, s, l)
				gotN, okN := g.NormalNext(s, l)
				if okN != (wantNormal >= 0) {
					t.Fatalf("%s: NormalNext(%v, %v) ok=%v, scan says %v", name, s, l, okN, wantNormal >= 0)
				}
				if okN && !reflect.DeepEqual(gotN, g.normal[wantNormal]) {
					t.Fatalf("%s: NormalNext(%v, %v) = %+v, scan gives %+v", name, s, l, gotN, g.normal[wantNormal])
				}

				wantIntra := scan(g.intra, s, l)
				gotI, okI := g.IntraNext(s, l)
				if okI != (wantIntra >= 0) {
					t.Fatalf("%s: IntraNext(%v, %v) ok=%v, scan says %v", name, s, l, okI, wantIntra >= 0)
				}
				if okI && !reflect.DeepEqual(gotI, g.intra[wantIntra]) {
					t.Fatalf("%s: IntraNext(%v, %v) = %+v, scan gives %+v", name, s, l, gotI, g.intra[wantIntra])
				}

				// Next prefers normal over intra.
				gotX, okX := g.Next(s, l)
				switch {
				case okN:
					if !okX || !reflect.DeepEqual(gotX, gotN) {
						t.Fatalf("%s: Next(%v, %v) should take the normal transition", name, s, l)
					}
				case okI:
					if !okX || !reflect.DeepEqual(gotX, gotI) {
						t.Fatalf("%s: Next(%v, %v) should fall back to the intra transition", name, s, l)
					}
				default:
					if okX {
						t.Fatalf("%s: Next(%v, %v) matched %+v with no transition declared or derived", name, s, l, gotX)
					}
				}
			}
		}
	}
}

// referencePathTo is the allocating early-exit BFS PathTo was memoized from,
// kept verbatim as the test oracle for the table buildPaths fills: adjacency
// in canonical transition order keeps the result deterministic.
func referencePathTo(g *Graph, a, b StateID) ([]Transition, bool) {
	if a == b {
		return nil, true
	}
	prev := make([]int, len(g.states)) // index into g.normal, -1 unset
	for i := range prev {
		prev[i] = -1
	}
	visited := make([]bool, len(g.states))
	visited[a] = true
	queue := []StateID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i, tr := range g.normal {
			if tr.From != cur || visited[tr.To] {
				continue
			}
			visited[tr.To] = true
			prev[tr.To] = i
			if tr.To == b {
				// Reconstruct.
				var rev []Transition
				for at := b; at != a; {
					tr := g.normal[prev[at]]
					rev = append(rev, tr)
					at = tr.From
				}
				path := make([]Transition, len(rev))
				for j := range rev {
					path[j] = rev[len(rev)-1-j]
				}
				return path, true
			}
			queue = append(queue, tr.To)
		}
	}
	return nil, false
}

// TestPathToMatchesBFS pins the memoized all-pairs table behind PathTo to the
// reference BFS for every ordered state pair of every protocol graph.
func TestPathToMatchesBFS(t *testing.T) {
	for name, g := range allProtocolGraphs() {
		n := g.NumStates()
		for a := StateID(0); int(a) < n; a++ {
			for b := StateID(0); int(b) < n; b++ {
				got, okG := g.PathTo(a, b)
				want, okW := referencePathTo(g, a, b)
				if okG != okW {
					t.Fatalf("%s: PathTo(%v, %v) ok=%v, BFS says %v", name, a, b, okG, okW)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: PathTo(%v, %v) = %+v, BFS gives %+v", name, a, b, got, want)
				}
			}
		}
	}
}

// TestFinalizeDeterministic finalizes the same graph twice and requires the
// derived artifacts — intra transitions (including their InferPaths), label
// order, and dispatch tables — to come out identical. deriveIntra iterates
// only slices (sorted labels, declaration-ordered transitions), so rebuild
// determinism is a structural invariant, not an accident of map iteration.
func TestFinalizeDeterministic(t *testing.T) {
	build := func() *Graph {
		g, err := forwardGraph(true)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.intra, b.intra) {
		t.Fatalf("intra transitions differ between identical builds:\n%+v\n%+v", a.intra, b.intra)
	}
	if !reflect.DeepEqual(a.labels, b.labels) {
		t.Fatalf("label order differs between identical builds")
	}
	if !reflect.DeepEqual(a.normalTab, b.normalTab) || !reflect.DeepEqual(a.intraTab, b.intraTab) {
		t.Fatalf("dispatch tables differ between identical builds")
	}
}

// TestIntraTieBreakDeterministic pins the deriveIntra tie-break: when two
// same-labeled normal transitions enter the jump target over equally short
// approach paths, the edge that comes first in the canonical (From, label)
// order Finalize sorts transitions into wins — independent of declaration
// order.
func TestIntraTieBreakDeterministic(t *testing.T) {
	b := NewBuilder("tiebreak")
	start := b.State("Start", false)
	a := b.State("A", false)
	c := b.State("B", false)
	target := b.State("T", true)
	b.Start(start)
	b.Transition(start, c, On(event.Dequeue, SelfSender)) // approach 2, same length
	b.Transition(start, a, On(event.Enqueue, SelfSender)) // approach 1 (first in canonical order)
	b.Transition(c, target, On(event.Trans, SelfSender))  // trans edge into T from B
	b.Transition(a, target, On(event.Trans, SelfSender))  // trans edge into T from A, canonical first
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := g.IntraNext(start, On(event.Trans, SelfSender))
	if !ok {
		t.Fatal("expected an intra transition Start --trans--> T")
	}
	if tr.To != target {
		t.Fatalf("intra target = %v, want %v", tr.To, target)
	}
	if len(tr.InferPath) != 1 || tr.InferPath[0].On.Type != event.Enqueue {
		t.Fatalf("tie-break must keep the first-declared approach (via A/enq), got %+v", tr.InferPath)
	}
}
