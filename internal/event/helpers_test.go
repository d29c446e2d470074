package event

import "strings"

// stringsBuilderCloser adapts strings.Builder for tests that need an
// io.Writer with a String accessor.
type stringsBuilderCloser struct{ strings.Builder }

func newStringReader(s string) *strings.Reader { return strings.NewReader(s) }

// Append appends one event logged at node n: AppendRows over a one-row
// batch, the single-row form the store's tests drive it with.
func (ps *PendingStore) Append(n NodeID, e Event) {
	var b Batch
	b.Append(e)
	ps.AppendRows(n, &b, 0, 1)
}

// logOf returns node n's pending log, or nil before its first row.
func (ps *PendingStore) logOf(n NodeID) *pendingLog {
	for _, l := range ps.logs {
		if l.node == n {
			return l
		}
	}
	return nil
}

// len returns the arena's row count.
func (a *viewArena) len() int { return len(a.typ) }
