package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCleanRepoExitsZero covers both CLI layers on the real repo: protocol
// verification plus the code analyzers over every module package.
func TestCleanRepoExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module; skipped in -short")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"repro/..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on clean repo\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "refill-lint: ok") {
		t.Errorf("missing ok line in %q", out.String())
	}
}

func TestProtocolOnlyModeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d with no args\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestJSONMode runs the code analyzers over the escapecheck fixture in -json
// mode and checks the machine-readable contract: one JSON object per line,
// pass/position/message fields filled, the allow-suppressed amortized-buffer
// finding present with allowed=true, and exit status driven by the
// non-allowed findings only.
func TestJSONMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "repro/internal/analysis/testdata/src/escapefix"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (fixture seeds violations)\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var sawAllowed, sawViolation bool
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var d struct {
			Pass    string `json:"pass"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Message string `json:"message"`
			Allowed bool   `json:"allowed"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("non-JSON output line %q: %v", line, err)
		}
		if d.Pass == "" || d.Message == "" {
			t.Errorf("JSON diagnostic missing pass or message: %s", line)
		}
		if d.Pass == "escapecheck" && (d.File == "" || d.Line == 0) {
			t.Errorf("analyzer diagnostic missing position: %s", line)
		}
		if d.Allowed {
			sawAllowed = true
		} else {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("no non-allowed finding in -json output")
	}
	if !sawAllowed {
		t.Error("-json output does not include the allow-suppressed finding with allowed=true")
	}
}

// TestJSONModeCleanRepoExitsZero proves allowed-only output still exits 0:
// the allow-suppressed findings in the real repo are visible but not fatal.
func TestJSONModeCleanRepoExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module; skipped in -short")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "repro/..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on clean repo\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		var d struct {
			Allowed bool `json:"allowed"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("non-JSON output line %q: %v", line, err)
		}
		if !d.Allowed {
			t.Errorf("clean repo emitted a non-allowed finding: %s", line)
		}
	}
}

// TestUnknownFixtureExitsTwo: -json is refill-lint's only flag, so -fixture
// is a usage error (the seeded violations are go tests; DESIGN §8).
func TestUnknownFixtureExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fixture", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
