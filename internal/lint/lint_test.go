package lint

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fsm"
)

// TestBuiltinProtocolsAreClean is the equivalence gate: every protocol the
// package ships — and therefore all four role templates — must pass every
// static check. This is the same verification cmd/refill-lint runs in CI.
func TestBuiltinProtocolsAreClean(t *testing.T) {
	for name, p := range map[string]*fsm.Protocol{
		"ctp":      fsm.DefaultCTP(),
		"tableii":  fsm.TableII(),
		"extended": fsm.ExtendedCTP(),
		"diss":     fsm.Dissemination(),
	} {
		if issues := Protocol(p); len(issues) > 0 {
			for _, i := range issues {
				t.Errorf("%s: %v", name, i)
			}
		}
	}
}

// TestRoleTemplatesCleanIndividually pins the per-graph checks on each of the
// four CTP role templates in isolation.
func TestRoleTemplatesCleanIndividually(t *testing.T) {
	p := fsm.DefaultCTP()
	for _, role := range []fsm.NodeRole{fsm.RoleOrigin, fsm.RoleForward, fsm.RoleSink, fsm.RoleServer} {
		g := p.Graph(role)
		if g == nil {
			t.Fatalf("missing %v template", role)
		}
		if issues := Graph(g); len(issues) > 0 {
			for _, i := range issues {
				t.Errorf("%v: %v", role, i)
			}
		}
	}
}

// TestDeadEndDiagnosticIsPrecise builds a Finalize-legal but broken graph — a
// non-terminal state with no way to reach a terminal — and requires the
// reachability diagnostic to name the state.
func TestDeadEndDiagnosticIsPrecise(t *testing.T) {
	b := fsm.NewBuilder("deadend")
	start := b.State("Start", false)
	stuck := b.State("Stuck", false)
	done := b.State("Done", true)
	b.Start(start)
	b.Transition(start, stuck, fsm.On(event.Recv, fsm.SelfReceiver))
	b.Transition(start, done, fsm.On(event.Dup, fsm.SelfReceiver))
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	issues := Graph(g)
	if len(issues) == 0 {
		t.Fatal("dead-end state not reported")
	}
	found := false
	for _, i := range issues {
		if i.Check == CheckReachability && strings.Contains(i.Detail, `"Stuck"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no reachability diagnostic naming Stuck; got %v", issues)
	}
}

// TestPrereqCycleDiagnosticNamesTheCycle requires the cycle report to spell
// out the offending event-type chain.
func TestPrereqCycleDiagnosticNamesTheCycle(t *testing.T) {
	p, err := cyclicProtocol()
	if err != nil {
		t.Fatal(err)
	}
	issues := Protocol(p)
	found := false
	for _, i := range issues {
		if i.Check == CheckPrereq && strings.Contains(i.Detail, "cycle") &&
			strings.Contains(i.Detail, "recv") && strings.Contains(i.Detail, "ack") {
			found = true
		}
	}
	if !found {
		t.Errorf("no cycle diagnostic naming recv and ack; got %v", issues)
	}
}

// TestCorruptionsAreCaughtIndividually drives each fsm corruption kind
// through the verifier and checks the specific representation divergence is
// attributed to the right check.
func TestCorruptionsAreCaughtIndividually(t *testing.T) {
	cases := []struct {
		kind  string
		check string
	}{
		{"nondeterminism", CheckDeterminism},
		{"dead-end", CheckReachability},
		{"unreachable", CheckReachability},
		{"anchor", CheckReachability},
		{"dense-divergence", CheckCoherence},
		{"path-divergence", CheckCoherence},
	}
	for _, c := range cases {
		issues := Graph(corruptForward(t, c.kind))
		found := false
		for _, i := range issues {
			found = found || i.Check == c.check
		}
		if !found {
			t.Errorf("%s: no %s issue; got %v", c.kind, c.check, issues)
		}
	}
}

// TestIssuesAreDeterministicallyOrdered runs the same broken graphs through
// the verifier twice and requires identical diagnostics — the property the
// sorted transition slices and sorted issue output exist for.
func TestIssuesAreDeterministicallyOrdered(t *testing.T) {
	verify := func() []Issue {
		var issues []Issue
		for _, kind := range []string{"dead-end", "unreachable", "anchor"} {
			issues = append(issues, Graph(corruptForward(t, kind))...)
		}
		return issues
	}
	a, b := verify(), verify()
	if len(a) == 0 {
		t.Fatal("seeded reachability violations not reported")
	}
	if len(a) != len(b) {
		t.Fatalf("issue count differs between runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("issue %d differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// corruptForward returns a fresh CTP forward graph corrupted with the given
// fsm fixture kind.
func corruptForward(t *testing.T, kind string) *fsm.Graph {
	t.Helper()
	g := fsm.DefaultCTP().Graph(fsm.RoleForward)
	if err := fsm.CorruptForFixture(g, kind); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return g
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
