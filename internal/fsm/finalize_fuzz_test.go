package fsm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fsm"
	"repro/internal/lint"
)

// FuzzFinalize drives Builder.Finalize with arbitrary graphs and asserts the
// contract the rest of the repo relies on: Finalize either rejects the graph
// with a descriptive error (never a panic), or hands back a graph whose
// derived tables pass the static verifier. Labels span roles 0..3, one past
// SelfReceiver, so the declaration-side role guard is exercised. Dead-end and
// no-terminal findings are tolerated — those are protocol-level wellformedness
// conditions Finalize deliberately leaves to lint — but determinism,
// coherence, anchor and unreachability findings on a finalized graph are
// bugs.
func FuzzFinalize(f *testing.F) {
	// A linear chain, a diamond, a duplicate-edge graph, a self-loop.
	f.Add([]byte{3, 0b100, 0, 1, 0, 10, 1, 2, 20})
	f.Add([]byte{4, 0b1000, 0, 1, 0, 7, 0, 2, 13, 1, 3, 21, 2, 3, 33})
	f.Add([]byte{2, 0b10, 0, 0, 1, 9, 0, 1, 9})
	f.Add([]byte{2, 0b10, 0, 0, 0, 5, 0, 1, 11})
	// timeout@role(3) out of the last state: it panicked Finalize before
	// Builder.Transition rejected roles above SelfReceiver.
	f.Add([]byte{0, 0b10, 0, 0, 1, 1, 1, 1, 51})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%6
		termMask := data[1]
		startIdx := int(data[2]) % n

		b := fsm.NewBuilder("fuzz")
		states := make([]fsm.StateID, n)
		for i := 0; i < n; i++ {
			states[i] = b.State(fmt.Sprintf("S%d", i), termMask&(1<<i) != 0)
		}
		b.Start(states[startIdx])
		for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
			from := states[int(rest[0])%n]
			to := states[int(rest[1])%n]
			lb := rest[2]
			label := fsm.On(event.Type(1+int(lb)%(event.NumTypes-1)), fsm.Role(int(lb/16)%4))
			b.Transition(from, to, label)
		}

		g, err := b.Finalize()
		if err != nil {
			if err.Error() == "" {
				t.Fatal("Finalize returned an empty error")
			}
			return
		}
		for _, issue := range lint.Graph(g) {
			if issue.Check == lint.CheckReachability &&
				(strings.Contains(issue.Detail, "no terminal state") ||
					strings.Contains(issue.Detail, "cannot reach any terminal")) {
				continue
			}
			t.Errorf("finalized graph fails lint: %v", issue)
		}
	})
}
