package fsm

import "fmt"

// CorruptForFixture mutates a finalized graph in ways Finalize can never
// produce. It exists solely to seed the violations the internal/lint tests
// drive through the verifier: each kind breaks exactly one invariant the
// static verifier must catch. Production code must never call it.
//
// Kinds:
//
//   - "nondeterminism": duplicates a (state, label) pair in the normal
//     transition slice, retargeted to a different state.
//   - "dead-end": clears the Terminal flag of a terminal state that has no
//     outgoing transitions, leaving a non-terminal state that cannot reach
//     any terminal.
//   - "unreachable": appends an orphan state no transition enters (dense
//     tables and the reachability matrix are grown so lookups stay
//     in-bounds).
//   - "anchor": clears the cached SentState anchor on a graph whose state
//     set contains Sent.
//   - "dense-divergence": erases one populated dense normal-dispatch slot so
//     it disagrees with the transition slice.
//   - "path-divergence": erases one memoized PathTo entry so it disagrees
//     with reachability.
func CorruptForFixture(g *Graph, kind string) error {
	switch kind {
	case "nondeterminism":
		if len(g.normal) == 0 {
			return fmt.Errorf("fsm: fixture %q needs a graph with transitions", kind)
		}
		dup := g.normal[0]
		dup.To = (dup.To + 1) % StateID(len(g.states))
		g.normal = append(g.normal, dup)
		return nil
	case "dead-end":
		for i, s := range g.states {
			if !s.Terminal {
				continue
			}
			outgoing := false
			for _, tr := range g.normal {
				if tr.From == StateID(i) {
					outgoing = true
					break
				}
			}
			if !outgoing {
				g.states[i].Terminal = false
				return nil
			}
		}
		return fmt.Errorf("fsm: fixture %q needs a terminal state without outgoing transitions", kind)
	case "unreachable":
		g.states = append(g.states, State{Name: "OrphanFixture"})
		g.byName["OrphanFixture"] = StateID(len(g.states) - 1)
		for i := range g.reach {
			g.reach[i] = append(g.reach[i], false)
		}
		g.reach = append(g.reach, make([]bool, len(g.states)))
		emptyRow := make([]int32, g.labelWidth)
		for i := range emptyRow {
			emptyRow[i] = -1
		}
		g.normalTab = append(g.normalTab, emptyRow...)
		g.intraTab = append(g.intraTab, emptyRow...)
		for a := range g.pathTab {
			g.pathTab[a] = append(g.pathTab[a], nil)
		}
		g.pathTab = append(g.pathTab, make([][]Transition, len(g.states)))
		return nil
	case "anchor":
		if g.sent == NoState {
			return fmt.Errorf("fsm: fixture %q needs a graph with a Sent state", kind)
		}
		g.sent = NoState
		return nil
	case "dense-divergence":
		for i, idx := range g.normalTab {
			if idx >= 0 {
				g.normalTab[i] = -1
				return nil
			}
		}
		return fmt.Errorf("fsm: fixture %q needs a populated dispatch table", kind)
	case "path-divergence":
		for a := range g.pathTab {
			for b := range g.pathTab[a] {
				if g.pathTab[a][b] != nil {
					g.pathTab[a][b] = nil
					return nil
				}
			}
		}
		return fmt.Errorf("fsm: fixture %q needs memoized paths", kind)
	}
	return fmt.Errorf("fsm: unknown fixture kind %q", kind)
}
