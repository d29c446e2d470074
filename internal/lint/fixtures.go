package lint

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/fsm"
)

// FixtureCategories lists the seeded violation fixtures BrokenFixture knows,
// one per graph-level check category. The code-analyzer category lives in
// cmd/refill-lint (it needs the internal/analysis loader).
var FixtureCategories = []string{"determinism", "reachability", "prereq-cycle", "divergence"}

// BrokenFixture builds the deliberately broken artifact for a check category
// and runs the verifier on it, returning the issues found. An empty result
// means the verifier failed to catch the seeded violation — cmd/refill-lint's
// fixture mode and the tests treat that as a failure of the linter itself.
func BrokenFixture(category string) ([]Issue, error) {
	switch category {
	case "determinism":
		g, err := corruptForward("nondeterminism")
		if err != nil {
			return nil, err
		}
		return Graph(g), nil
	case "reachability":
		var issues []Issue
		for _, kind := range []string{"dead-end", "unreachable", "anchor"} {
			g, err := corruptForward(kind)
			if err != nil {
				return nil, err
			}
			issues = append(issues, Graph(g)...)
		}
		return issues, nil
	case "prereq-cycle":
		p, err := cyclicProtocol()
		if err != nil {
			return nil, err
		}
		return Protocol(p), nil
	case "divergence":
		var issues []Issue
		for _, kind := range []string{"dense-divergence", "index-divergence", "path-divergence"} {
			g, err := corruptForward(kind)
			if err != nil {
				return nil, err
			}
			issues = append(issues, Graph(g)...)
		}
		return issues, nil
	}
	return nil, fmt.Errorf("lint: unknown fixture category %q", category)
}

// corruptForward corrupts a fresh CTP forward graph with the given fsm
// fixture kind.
func corruptForward(kind string) (*fsm.Graph, error) {
	g := fsm.DefaultCTP().Graph(fsm.RoleForward)
	if err := fsm.CorruptForFixture(g, kind); err != nil {
		return nil, err
	}
	return g, nil
}

// cyclicProtocol builds a protocol whose prerequisite table is mutually
// recursive: satisfying a recv prerequisite infers an ack, whose prerequisite
// infers a recv — the unbounded inter-node recursion the cycle check rejects.
// The graphs themselves are perfectly well-formed; only the Definition 4.1
// table is broken.
func cyclicProtocol() (*fsm.Protocol, error) {
	b := fsm.NewBuilder("cyclic")
	start := b.State("CycStart", false)
	mid := b.State("CycMid", false)
	end := b.State("CycEnd", true)
	b.Start(start)
	b.Transition(start, mid, fsm.On(event.AckRecvd, fsm.SelfSender))
	b.Transition(mid, end, fsm.On(event.Recv, fsm.SelfReceiver))
	g, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	return fsm.NewProtocol("cyclic", map[fsm.NodeRole]*fsm.Graph{
		fsm.RoleOrigin:  g,
		fsm.RoleForward: g,
		fsm.RoleSink:    g,
		fsm.RoleServer:  g,
	}, map[event.Type]fsm.Prereq{
		// recv's prerequisite is reached through an ack-labeled edge...
		event.Recv: {PeerRole: fsm.SelfSender, AnyOf: []string{"CycMid"}, InferTo: "CycMid"},
		// ...and ack's prerequisite through a recv-labeled edge.
		event.AckRecvd: {PeerRole: fsm.SelfReceiver, AnyOf: []string{"CycEnd"}, InferTo: "CycEnd"},
	})
}
