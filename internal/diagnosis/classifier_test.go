package diagnosis

// Classifier-specific coverage: scratch reuse must never leak state between
// flows (a reused classifier agrees with a fresh one and with the
// package-level Classify on its free list on every fixture), the path/loop scratch must agree
// with flow.Path/HasLoop, and steady-state classification must not allocate.

import (
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/flow"
	"repro/internal/fsm"
)

// fixtureFlows assembles one flow per classification case — delivered,
// received, acked, transit, timeout, dup, overflow, superseded-Sent, loop,
// unknown — so iterating them stresses every scratch table.
func fixtureFlows() []*flow.Flow {
	return []*flow.Flow{
		// Delivered.
		mkFlow(nil, flow.Item{Event: event.Event{Node: event.Server, Type: event.ServerRecv,
			Sender: 9, Receiver: event.Server, Packet: pkt, Time: 100}}),
		// ReceivedLoss with logged time.
		mkFlow([]flow.Visit{
			{Node: 1, State: fsm.StateAcked, LastPos: 2},
			{Node: 2, State: fsm.StateReceived, LastPos: 3},
		}, loggedItem(event.Recv, 1, 2, 77)),
		// AckedLoss (inferred reception).
		mkFlow([]flow.Visit{
			{Node: 1, State: fsm.StateAcked, LastPos: 2},
			{Node: 2, State: fsm.StateReceived, RecvInferred: true, LastPos: 3},
		}),
		// TransitLoss.
		mkFlow([]flow.Visit{{Node: 1, State: fsm.StateSent, Peer: 2, LastPos: 1}}),
		// TimeoutLoss.
		mkFlow([]flow.Visit{{Node: 3, State: fsm.StateTimedOut, Peer: 4, LastPos: 5}}),
		// DupLoss after a live visit at another node.
		mkFlow([]flow.Visit{
			{Node: 2, State: fsm.StateDupDrop, LastPos: 4},
		}),
		// OverflowLoss.
		mkFlow([]flow.Visit{{Node: 2, State: fsm.StateOverflow, LastPos: 4}}),
		// Superseded Sent: the reception evidence outranks the dangling ack.
		mkFlow([]flow.Visit{
			{Node: 1, State: fsm.StateSent, Peer: 2, LastPos: 5},
			{Node: 2, State: fsm.StateReceived, LastPos: 2},
		},
			loggedItem(event.Trans, 1, 2, 10),
			loggedItem(event.Recv, 1, 2, 20),
		),
		// Routing loop: custody returns to the origin.
		mkFlow([]flow.Visit{{Node: 1, State: fsm.StateSent, Peer: 2, LastPos: 9}},
			loggedItem(event.Recv, 1, 2, 10),
			loggedItem(event.Recv, 2, 3, 20),
			loggedItem(event.Recv, 3, 1, 30),
		),
		// Unknown: no evidence at all.
		mkFlow(nil),
	}
}

// TestClassifierReuseMatchesFresh runs every fixture through one reused
// classifier, repeatedly and in varying order, and pins each outcome to a
// fresh classifier's and to the package-level Classify.
func TestClassifierReuseMatchesFresh(t *testing.T) {
	flows := fixtureFlows()
	reused := NewClassifier()
	for round := 0; round < 3; round++ {
		for i := range flows {
			// Alternate direction so scratch from a big flow precedes a
			// small one and vice versa.
			f := flows[i]
			if round%2 == 1 {
				f = flows[len(flows)-1-i]
			}
			want := NewClassifier().Classify(f)
			if got := reused.Classify(f); got != want {
				t.Errorf("round %d: reused outcome = %+v, want %+v", round, got, want)
			}
			if got := Classify(f); got != want {
				t.Errorf("round %d: package-level outcome = %+v, want %+v", round, got, want)
			}
		}
	}
}

// TestClassifyConcurrent runs the package-level Classify from several
// goroutines at once: each call must take a classifier off the free list no
// other call holds (run it with -race).
func TestClassifyConcurrent(t *testing.T) {
	flows := fixtureFlows()
	want := make([]Outcome, len(flows))
	for i, f := range flows {
		want[i] = NewClassifier().Classify(f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, f := range flows {
					if got := Classify(f); got != want[i] {
						t.Errorf("fixture %d: outcome = %+v, want %+v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestClassifierLoopMatchesFlowPath pins the in-place path scratch to the
// allocating flow.Path/HasLoop reference on loops and non-loops.
func TestClassifierLoopMatchesFlowPath(t *testing.T) {
	for i, f := range fixtureFlows() {
		out := NewClassifier().Classify(f)
		if out.Loop != f.HasLoop() {
			t.Errorf("fixture %d: Loop = %v, flow.HasLoop = %v", i, out.Loop, f.HasLoop())
		}
	}
	loop := mkFlow(nil,
		loggedItem(event.Recv, 1, 2, 10),
		loggedItem(event.Recv, 2, 3, 20),
		loggedItem(event.Recv, 3, 1, 30),
	)
	if out := NewClassifier().Classify(loop); !out.Loop {
		t.Error("loop flow not flagged")
	}
}

// TestClassifyAllocFree pins the tentpole invariant: after one warm-up pass
// sizes the scratch, classifying allocates nothing.
func TestClassifyAllocFree(t *testing.T) {
	flows := fixtureFlows()
	cl := NewClassifier()
	for _, f := range flows {
		cl.Classify(f) // warm the scratch to its high-water mark
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, f := range flows {
			cl.Classify(f)
		}
	})
	if avg != 0 {
		t.Errorf("Classify allocations per pass = %v, want 0", avg)
	}
}

// TestStatePredicates pins the classifier's three name predicates for every
// fsm.State* name, and that a name outside them — a foreign graph's state,
// a different case, the empty name — is neither live nor sent-reaching nor
// a drop.
func TestStatePredicates(t *testing.T) {
	cases := []struct {
		state      string
		live, sent bool
		drop       Cause
	}{
		{fsm.StateStart, false, false, Delivered},
		{fsm.StateHas, true, false, Delivered},
		{fsm.StateReceived, true, false, Delivered},
		{fsm.StateQueued, true, false, Delivered},
		{fsm.StateDispatched, true, false, Delivered},
		{fsm.StateSent, true, true, Delivered},
		{fsm.StateAcked, false, true, Delivered},
		{fsm.StateTimedOut, false, true, TimeoutLoss},
		{fsm.StateDupDrop, false, false, DupLoss},
		{fsm.StateOverflow, false, false, OverflowLoss},
		{fsm.StateStored, false, false, Delivered},
		{fsm.StateAnnounced, false, false, Delivered},
		{fsm.StateComplete, false, false, Delivered},
		{fsm.StateGot, false, false, Delivered},
		{fsm.StateResponded, false, false, Delivered},
		{"Foreign", false, false, Delivered},
		{"sent", false, false, Delivered},
		{"", false, false, Delivered},
	}
	for _, c := range cases {
		if got := isLive(c.state); got != c.live {
			t.Errorf("isLive(%q) = %v, want %v", c.state, got, c.live)
		}
		if got := isSentReaching(c.state); got != c.sent {
			t.Errorf("isSentReaching(%q) = %v, want %v", c.state, got, c.sent)
		}
		if got := dropCause(c.state); got != c.drop {
			t.Errorf("dropCause(%q) = %v, want %v", c.state, got, c.drop)
		}
	}
}
