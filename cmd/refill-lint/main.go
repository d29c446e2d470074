// Command refill-lint statically verifies the repo's protocol machinery at
// two layers: the domain layer checks every built-in protocol graph and
// prerequisite table (determinism, reachability, prerequisite soundness,
// representation coherence), and the code layer
// runs the custom analyzers in internal/analysis (maprange, wallclock,
// poolhygiene, escapecheck, shardowner) over the packages named on the
// command line.
//
// Usage:
//
//	refill-lint                  verify built-in protocols only
//	refill-lint ./...            also run code analyzers on the packages
//	refill-lint -json ./...      machine-readable output, one JSON object per line
//	refill-lint -fixture all     prove each seeded violation is caught
//
// In -json mode directive-suppressed findings are included with
// "allowed": true (the human-readable mode drops them); the exit status
// counts only non-allowed findings either way.
//
// Exit status: 0 clean, 1 issues found, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/event"
	"repro/internal/fsm"
	"repro/internal/lint"
)

// codeFixturePattern is the seeded code-analyzer violation package; testdata
// is invisible to ./... so it never dirties normal runs.
const codeFixturePattern = "repro/internal/analysis/testdata/src/fixture"

// analyzerFixtures maps the per-pass fixture categories to the seeded
// violation package and the single analyzer expected to catch it.
var analyzerFixtures = map[string]struct {
	pattern  string
	analyzer *analysis.Analyzer
}{
	"escapecheck": {analysis.EscapeFixturePattern, analysis.EscapeCheck},
	"shardowner":  {analysis.ShardFixturePattern, analysis.ShardOwner},
	"session":     {analysis.SessionFixturePattern, analysis.ShardOwner},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the machine-readable form of one finding. Protocol issues fill
// pass/subject/message; analyzer diagnostics fill pass/file/line/col/message
// plus the allow-directive status.
type jsonDiag struct {
	Pass    string `json:"pass"`
	Subject string `json:"subject,omitempty"`
	File    string `json:"file,omitempty"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	Message string `json:"message"`
	Allowed bool   `json:"allowed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("refill-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fixture := fs.String("fixture", "", "run a seeded violation fixture (category or \"all\") and exit non-zero when it is caught")
	asJSON := fs.Bool("json", false, "emit one JSON object per finding (includes allow-suppressed findings with \"allowed\": true)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fixture != "" {
		return runFixtures(*fixture, stdout, stderr)
	}

	enc := json.NewEncoder(stdout)
	issues := verifyProtocols()
	for _, i := range issues {
		if *asJSON {
			enc.Encode(jsonDiag{Pass: i.Check, Subject: i.Subject, Message: i.Detail})
		} else {
			fmt.Fprintln(stdout, i)
		}
	}
	bad := len(issues) > 0

	if fs.NArg() > 0 {
		pkgs, err := analysis.Load("", fs.Args()...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *asJSON {
			for _, d := range analysis.RunAll(pkgs, analysis.Analyzers()) {
				enc.Encode(jsonDiag{
					Pass:    d.Analyzer,
					File:    d.Pos.Filename,
					Line:    d.Pos.Line,
					Col:     d.Pos.Column,
					Message: d.Message,
					Allowed: d.Allowed,
				})
				bad = bad || !d.Allowed
			}
		} else {
			diags := analysis.Run(pkgs, analysis.Analyzers())
			for _, d := range diags {
				fmt.Fprintln(stdout, d)
			}
			bad = bad || len(diags) > 0
		}
	}

	if bad {
		return 1
	}
	if !*asJSON {
		fmt.Fprintln(stdout, "refill-lint: ok")
	}
	return 0
}

// verifyProtocols runs the domain verifier over every protocol the repo
// ships, labeling each issue with its protocol.
func verifyProtocols() []lint.Issue {
	protocols := []struct {
		name string
		p    *fsm.Protocol
	}{
		{"ctp", fsm.DefaultCTP()},
		{"tableii", fsm.TableII()},
		{"extended", fsm.ExtendedCTP()},
		{"dissemination", fsm.Dissemination()},
	}
	var out []lint.Issue
	for _, pr := range protocols {
		for _, i := range lint.Protocol(pr.p) {
			i.Subject = pr.name + ": " + i.Subject
			out = append(out, i)
		}
	}
	return out
}

// runFixtures seeds the requested violation category (or all of them), runs
// the matching checker, and exits 1 when — as expected — the violation is
// caught and printed. A fixture the linter fails to catch is a bug in the
// linter itself and exits 2.
func runFixtures(category string, stdout, stderr io.Writer) int {
	categories := []string{category}
	if category == "all" {
		categories = append(append([]string{}, lint.FixtureCategories...), "code-analyzer", "escapecheck", "shardowner", "session", "snapfix")
	}
	caughtAll := true
	reported := 0
	for _, c := range categories {
		var lines []string
		if c == "snapfix" {
			// Seeded snapshot-file corruptions: each kind must be rejected
			// by the snapshot reader's validation, not silently decoded.
			for _, kind := range event.SnapshotFixtureKinds {
				msg, err := event.BrokenSnapshotFixture(kind)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 2
				}
				lines = append(lines, fmt.Sprintf("%s: %s", kind, msg))
			}
		} else if c == "code-analyzer" {
			pkgs, err := analysis.Load("", codeFixturePattern)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			for _, d := range analysis.Run(pkgs, analysis.Analyzers()) {
				lines = append(lines, d.String())
			}
		} else if fx, ok := analyzerFixtures[c]; ok {
			pkgs, err := analysis.Load("", fx.pattern)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			for _, d := range analysis.Run(pkgs, []*analysis.Analyzer{fx.analyzer}) {
				lines = append(lines, d.String())
			}
		} else {
			issues, err := lint.BrokenFixture(c)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			for _, i := range issues {
				lines = append(lines, i.String())
			}
		}
		if len(lines) == 0 {
			fmt.Fprintf(stderr, "refill-lint: fixture %q: seeded violation NOT caught\n", c)
			caughtAll = false
			continue
		}
		for _, l := range lines {
			fmt.Fprintf(stdout, "fixture %s: %s\n", c, l)
			reported++
		}
	}
	if !caughtAll {
		return 2
	}
	fmt.Fprintf(stdout, "refill-lint: %d seeded violations caught as expected\n", reported)
	return 1
}
