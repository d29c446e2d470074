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

// TestBrokenFixtures asserts every seeded violation fixture is caught with a
// diagnostic naming the right check.
func TestBrokenFixtures(t *testing.T) {
	wantCheck := map[string]string{
		"determinism":  CheckDeterminism,
		"reachability": CheckReachability,
		"prereq-cycle": CheckPrereq,
		"divergence":   CheckCoherence,
	}
	for _, category := range FixtureCategories {
		issues, err := BrokenFixture(category)
		if err != nil {
			t.Fatalf("%s: %v", category, err)
		}
		if len(issues) == 0 {
			t.Errorf("%s: seeded violation not caught", category)
			continue
		}
		found := false
		for _, i := range issues {
			found = found || i.Check == wantCheck[category]
		}
		if !found {
			t.Errorf("%s: no issue with check %q among %v", category, wantCheck[category], issues)
		}
	}
}

func TestUnknownFixtureCategory(t *testing.T) {
	if _, err := BrokenFixture("nope"); err == nil {
		t.Fatal("expected an error for an unknown fixture category")
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
	issues, err := BrokenFixture("prereq-cycle")
	if err != nil {
		t.Fatal(err)
	}
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
		{"index-divergence", CheckCoherence},
		{"path-divergence", CheckCoherence},
	}
	for _, c := range cases {
		g := fsm.DefaultCTP().Graph(fsm.RoleForward)
		if err := fsm.CorruptForFixture(g, c.kind); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		issues := Graph(g)
		found := false
		for _, i := range issues {
			found = found || i.Check == c.check
		}
		if !found {
			t.Errorf("%s: no %s issue; got %v", c.kind, c.check, issues)
		}
	}
}

// TestIssuesAreDeterministicallyOrdered runs the same broken fixture twice
// and requires identical diagnostics — the property the sorted transition
// slices and sorted issue output exist for.
func TestIssuesAreDeterministicallyOrdered(t *testing.T) {
	a, err := BrokenFixture("reachability")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BrokenFixture("reachability")
	if err != nil {
		t.Fatal(err)
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
