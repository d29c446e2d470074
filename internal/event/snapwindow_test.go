package event

import (
	"math"
	"testing"
	"time"
)

// wideTimeDomain is a time-ordered collection whose timestamps span more than
// math.MaxInt64: 200 ordinary packets between one row at MinInt64+10 and one
// at MaxInt64-10, both about packet 4:1.
func wideTimeDomain() *Collection {
	c := NewCollection()
	c.Add(pev(4, 4, 1, Trans, math.MinInt64+10))
	for i := 0; i < 200; i++ {
		origin := NodeID(4 + i%3)
		c.Add(pev(origin, origin, uint32(i+2), Trans, int64(i)*100))
		c.Add(pev(1, origin, uint32(i+2), Recv, int64(i)*100+2))
	}
	c.Add(pev(5, 4, 1, Recv, math.MaxInt64-10))
	return c
}

// TestPlanWindowsWideTimeDomain: the planner bisects the time domain, and the
// midpoint lo+(hi-lo)/2 wraps when hi-lo exceeds math.MaxInt64 — the loop then
// never ends. Run under a deadline so that failure is a failure, not a hang.
func TestPlanWindowsWideTimeDomain(t *testing.T) {
	c := wideTimeDomain()
	done := make(chan *WindowPlan, 1)
	go func() {
		p, err := PlanWindows(c, 64)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	var p *WindowPlan
	select {
	case p = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("PlanWindows still bisecting after 20 s")
	}
	if p == nil {
		t.FailNow()
	}
	if p.Windows() < 2 || p.Cut(p.Windows()-1) != math.MaxInt64 {
		t.Fatalf("%d windows, last cut %d", p.Windows(), p.Cut(p.Windows()-1))
	}
	fed := 0
	for k := 0; k < p.Windows(); k++ {
		if k > 0 && p.Cut(k) <= p.Cut(k-1) {
			t.Fatalf("cut %d = %d does not ascend past %d", k, p.Cut(k), p.Cut(k-1))
		}
		for i := range p.Nodes() {
			lo, hi := p.Span(k, i)
			fed += hi - lo
		}
	}
	if fed != c.TotalEvents() {
		t.Fatalf("windows feed %d rows, collection holds %d", fed, c.TotalEvents())
	}
}

// TestMaxPacketSpreadSaturates: a packet whose two rows are more than
// math.MaxInt64 apart has no representable spread; the measure must saturate
// instead of wrapping to a small (or negative) horizon.
func TestMaxPacketSpreadSaturates(t *testing.T) {
	c := NewCollection()
	c.Add(pev(1, 1, 1, Trans, 10))
	c.Add(pev(2, 1, 1, Recv, 25))
	if got := MaxPacketSpread(c); got != 15 {
		t.Fatalf("spread = %d, want 15", got)
	}
	c.Add(pev(4, 4, 1, Trans, math.MinInt64+10))
	c.Add(pev(5, 4, 1, Recv, math.MaxInt64-10))
	if got := MaxPacketSpread(c); got != math.MaxInt64 {
		t.Fatalf("spread = %d, want it saturated at MaxInt64", got)
	}
}
