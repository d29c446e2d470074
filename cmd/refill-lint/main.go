// Command refill-lint statically verifies the repo's protocol machinery at
// two layers: the domain layer checks every built-in protocol graph and
// prerequisite table (determinism, reachability, prerequisite soundness,
// coherence of the walk's tables with the declared transitions), and the
// code layer runs the custom analyzers in internal/analysis (maprange,
// wallclock, poolhygiene, escapecheck, shardowner) over the packages named
// on the command line.
//
// Usage:
//
//	refill-lint                  verify built-in protocols only
//	refill-lint ./...            also run code analyzers on the packages
//	refill-lint -json ./...      machine-readable output, one JSON object per line
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
	"repro/internal/fsm"
	"repro/internal/lint"
)

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
	asJSON := fs.Bool("json", false, "emit one JSON object per finding (includes allow-suppressed findings with \"allowed\": true)")
	if err := fs.Parse(args); err != nil {
		return 2
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
