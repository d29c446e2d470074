package analysis

import (
	"strings"
	"testing"
)

// EscapeFixturePattern is the seeded escapecheck-violation fixture package;
// testdata is invisible to ./..., so it never dirties normal runs.
const EscapeFixturePattern = "repro/internal/analysis/testdata/src/escapefix"

func loadEscapeFixture(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load("", EscapeFixturePattern)
	if err != nil {
		t.Fatalf("loading escape fixture: %v", err)
	}
	return pkgs
}

// TestEscapeFixtureDiagnostics drives escapecheck over the seeded fixture and
// pins the exact findings: the moved-to-heap local, the escaping make, the
// uninlinable annotated function — and the absence of findings for the clean
// function and the allow-suppressed amortized buffer.
func TestEscapeFixtureDiagnostics(t *testing.T) {
	diags := Run(loadEscapeFixture(t), []*Analyzer{EscapeCheck})
	type finding struct {
		line int
		want string
	}
	wants := []finding{
		{12, "moved to heap: x"},
		{20, "make([]int, n) escapes to heap"},
		{26, "cannot be inlined"},
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.want) {
			t.Errorf("diagnostic %d: got line %d %q, want line %d containing %q",
				i, diags[i].Pos.Line, diags[i].Message, w.line, w.want)
		}
		if diags[i].Analyzer != "escapecheck" {
			t.Errorf("diagnostic %d: analyzer %q, want escapecheck", i, diags[i].Analyzer)
		}
	}
}

// TestEscapeFixtureAllowStatus proves the allow-suppressed amortized-buffer
// allocation is still visible through RunAll with Allowed=true — the -json
// surface CI consumes.
func TestEscapeFixtureAllowStatus(t *testing.T) {
	all := RunAll(loadEscapeFixture(t), []*Analyzer{EscapeCheck})
	var allowed []Diagnostic
	for _, d := range all {
		if d.Allowed {
			allowed = append(allowed, d)
		}
	}
	if len(allowed) != 1 {
		t.Fatalf("got %d allowed diagnostics, want 1 (the amortized buffer):\n%v", len(allowed), all)
	}
	if !strings.Contains(allowed[0].Message, "make([]byte, 64)") {
		t.Errorf("allowed diagnostic %q does not name the amortized buffer", allowed[0].Message)
	}
}

// pinnedM2Output is a captured slice of real `go build -gcflags=-m=2` output
// from the toolchain this repo builds with (go1.24, linux/amd64). The parser
// table tests below pin the exact grammar; if a Go upgrade changes the
// format, these tests fail first and loudly, before escapecheck starts
// certifying annotations against output it cannot read.
const pinnedM2Output = `# repro/internal/flow
internal/flow/arena.go:56:6: can inline chunkHint with cost 8 as: func(int, int) int { if hint > def { return hint }; return def }
internal/flow/arena.go:74:6: cannot inline (*column[go.shape.struct { Packet repro/internal/event.PacketID }]).carve: function too complex: cost 87 exceeds budget 80
internal/flow/arena.go:74:6: can inline (*column[repro/internal/flow.Anomaly]).carve with cost 63 as: method(*column[repro/internal/flow.Anomaly]) func(int) []Anomaly { return nil }
internal/flow/arena.go:49:26: inlining call to chunkHint
internal/flow/arena.go:48:7: &Arena{} escapes to heap:
internal/flow/arena.go:48:7:   flow: a = &{storage for &Arena{}}:
internal/flow/arena.go:48:7:     from &Arena{} (spill) at internal/flow/arena.go:48:7
internal/flow/arena.go:48:7: &Arena{} escapes to heap
internal/flow/arena.go:81:17: make([]T, 0, size) escapes to heap:
internal/flow/arena.go:81:17:   flow: {heap} = &{storage for make([]T, 0, size)}:
internal/flow/arena.go:81:17: make([]T, 0, size) escapes to heap
internal/flow/arena.go:81:17: make([]T, 0, size) escapes to heap
internal/flow/kernel.go:12:2: x escapes to heap:
internal/flow/kernel.go:12:2:   flow: {heap} = &x:
internal/flow/arena.go:74:7: parameter c leaks to {heap} with derefs=0:
internal/flow/arena.go:74:7: leaking param: c
internal/flow/flow.go:131:18: inlining call to event.Event.Key
internal/flow/arena.go:100:10: (*column[T]).carve ignoring self-assignment in c.chunk = c.chunk[:off + n]
internal/flow/kernel.go:12:2: moved to heap: x
internal/flow/flow.go:290:6: can inline (*Flow).Retransmissions with cost 57 as: method(*Flow) func() map[[2]event.NodeID]int { return nil }
internal/flow/flow.go:23:6: cannot inline Item.String: function too complex: cost 128 exceeds budget 80
internal/flow/batch.go:168:6: ([]Event)(nil) does not escape
`

// TestParseEscapeDiagnosticsTable pins the parser against the captured
// output: allocation records deduped across the trace-header/plain pair,
// inline verdicts grouped by declaration line, noise recognized.
func TestParseEscapeDiagnosticsTable(t *testing.T) {
	m := ParseEscapeDiagnostics(pinnedM2Output, "/abs")

	wantAllocs := []AllocSite{
		{File: "/abs/internal/flow/arena.go", Line: 48, Col: 7, Text: "&Arena{} escapes to heap"},
		{File: "/abs/internal/flow/arena.go", Line: 81, Col: 17, Text: "make([]T, 0, size) escapes to heap"},
		{File: "/abs/internal/flow/kernel.go", Line: 12, Col: 2, Text: "moved to heap: x"},
	}
	if len(m.Allocs) != len(wantAllocs) {
		t.Fatalf("got %d allocs, want %d:\n%v", len(m.Allocs), len(wantAllocs), m.Allocs)
	}
	for i, w := range wantAllocs {
		if m.Allocs[i] != w {
			t.Errorf("alloc %d: got %+v, want %+v", i, m.Allocs[i], w)
		}
	}

	carve := m.DecisionsAt("/abs/internal/flow/arena.go", 74)
	if len(carve) != 2 {
		t.Fatalf("got %d decisions for carve, want 2 (shape + wrapper): %v", len(carve), carve)
	}
	if carve[0].CanInline || !strings.Contains(carve[0].Reason, "cost 87 exceeds budget 80") {
		t.Errorf("carve shape decision: %+v", carve[0])
	}
	if !carve[1].CanInline || carve[1].Cost != 63 {
		t.Errorf("carve wrapper decision: %+v", carve[1])
	}

	hint := m.DecisionsAt("/abs/internal/flow/arena.go", 56)
	if len(hint) != 1 || !hint[0].CanInline || hint[0].Cost != 8 || hint[0].Name != "chunkHint" {
		t.Errorf("chunkHint decision: %v", hint)
	}

	if m.Drifted() {
		t.Errorf("pinned output reads as drifted: parsed=%d unknown=%d", m.Parsed, m.Unknown)
	}
	if m.Unknown != 0 {
		t.Errorf("pinned output has %d unknown lines, want 0", m.Unknown)
	}
}

// TestParseEscapeDiagnosticsDrift proves unrecognizable output is flagged as
// drifted rather than silently certifying annotations.
func TestParseEscapeDiagnosticsDrift(t *testing.T) {
	m := ParseEscapeDiagnostics("some:1:2: future diagnostic grammar\nanother:3:4: with unknown verbs\n", "/abs")
	if !m.Drifted() {
		t.Errorf("unknown grammar not flagged as drift: parsed=%d unknown=%d", m.Parsed, m.Unknown)
	}
	if m := ParseEscapeDiagnostics("", "/abs"); !m.Drifted() {
		t.Error("empty output not flagged as drift")
	}
}

// TestCompileEscapesLive compiles the escape fixture with the installed
// toolchain and checks the model contains every diagnostic class the pass
// relies on — the live canary for -m=2 format drift.
func TestCompileEscapesLive(t *testing.T) {
	pkgs := loadEscapeFixture(t)
	var dir string
	for _, p := range pkgs {
		if p.Path == EscapeFixturePattern {
			dir = p.Dir
		}
	}
	if dir == "" {
		t.Fatal("fixture package not found in load")
	}
	m, err := CompileEscapes(dir)
	if err != nil {
		t.Fatalf("CompileEscapes: %v", err)
	}
	if m.Drifted() {
		t.Fatalf("live -m=2 output drifted: parsed=%d unknown=%d", m.Parsed, m.Unknown)
	}
	if len(m.Allocs) == 0 {
		t.Error("live model has no allocation records; the fixture seeds several")
	}
	var can, cannot bool
	for _, ds := range m.Inlines {
		for _, d := range ds {
			if d.CanInline {
				can = true
			} else {
				cannot = true
			}
		}
	}
	if !can || !cannot {
		t.Errorf("live model missing inline verdict classes: can=%v cannot=%v", can, cannot)
	}
}
