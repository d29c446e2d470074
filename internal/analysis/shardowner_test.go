package analysis

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// ShardFixturePattern is the seeded shardowner-violation fixture package;
// testdata is invisible to ./..., so it never dirties normal runs.
const ShardFixturePattern = "repro/internal/analysis/testdata/src/shardfix"

func loadShardFixture(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load("", ShardFixturePattern)
	if err != nil {
		t.Fatalf("loading shard fixture: %v", err)
	}
	return pkgs
}

// TestShardFixtureDiagnostics drives shardowner over the seeded fixture and
// pins one finding per crossing rule: closure capture, channel send, global
// store (declaration and assignment), go-call argument — and the absence of
// the allow-suppressed merge-at-join handoff.
func TestShardFixtureDiagnostics(t *testing.T) {
	diags := Run(loadShardFixture(t), []*Analyzer{ShardOwner})
	type finding struct {
		line int
		want string
	}
	wants := []finding{
		{33, "captured by a goroutine closure"},
		{46, "sent on a channel"},
		{50, "package-level variable shared holds worker-owned"},
		{54, "stored into package-level"},
		{61, "passed into a go statement"},
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.want) {
			t.Errorf("diagnostic %d: got line %d %q, want line %d containing %q",
				i, diags[i].Pos.Line, diags[i].Message, w.line, w.want)
		}
	}
	for _, d := range diags {
		if strings.Contains(d.Message, `"out"`) {
			t.Errorf("allow-suppressed merge-at-join handoff reported: %v", d)
		}
	}
}

// TestShardOwnerCleanOnRepo is the self-gate for the sharded engine: the
// packages that own //refill:owned types must produce no unsuppressed
// crossings.
func TestShardOwnerCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full dependency closure; skipped in -short")
	}
	pkgs, err := Load("",
		"repro/internal/engine",
		"repro/internal/flow",
		"repro/internal/diagnosis",
		"repro/internal/event",
	)
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	for _, d := range Run(pkgs, []*Analyzer{ShardOwner}) {
		t.Errorf("repo shardowner diagnostic: %v", d)
	}
}

// TestShardOwnerCatchesRealRace closes the static/dynamic loop: the seeded
// closure-capture violation in the fixture is a genuine data race, so running
// the fixture's TestLeakClosureRaces under -race must FAIL with a race
// report — the pass catches statically exactly what the race detector
// catches dynamically. The sanctioned merge-at-join pattern in the same
// package must stay race-free.
func TestShardOwnerCatchesRealRace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a -race test binary; skipped in -short")
	}
	if !raceSupported(t) {
		t.Skip("race detector unavailable in this environment")
	}

	// The seeded leaks must trip the race detector.
	for _, c := range []struct{ pattern, run string }{
		{ShardFixturePattern, "TestLeakClosureRaces"},
	} {
		out, err := runGoTestRace(c.pattern, c.run)
		if err == nil {
			t.Fatalf("go test -race on the seeded leak %s passed; expected a race failure\n%s", c.run, out)
		}
		if !strings.Contains(out, "WARNING: DATA RACE") {
			t.Fatalf("go test -race on %s failed without a race report:\n%s", c.run, out)
		}
	}

	// The allow-annotated handoffs must not.
	for _, c := range []struct{ pattern, run string }{
		{ShardFixturePattern, "TestMergeAtJoinIsRaceFree"},
	} {
		out, err := runGoTestRace(c.pattern, c.run)
		if err != nil {
			t.Fatalf("go test -race on the sanctioned handoff %s failed:\n%s", c.run, out)
		}
	}
}

func runGoTestRace(pattern, run string) (string, error) {
	cmd := exec.Command("go", "test", "-race", "-count=1", "-run", "^"+run+"$", pattern)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// raceSupported probes whether -race builds work here (needs cgo and a C
// toolchain); environments without one skip the dynamic half of the test.
func raceSupported(t *testing.T) bool {
	t.Helper()
	cmd := exec.Command("go", "test", "-race", "-run", "^$", "-count=1", ShardFixturePattern)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Logf("race probe failed: %v\n%s", err, buf.String())
		return false
	}
	return true
}
