package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clocksync"
	"repro/internal/event"
	"repro/internal/logging"
	"repro/internal/workload"
)

// ClockRecoveryResult is experiment E-A6: how well the reconstructed flows
// let us re-synchronize the deployment's clocks after the fact, scored
// against the collector's true clock assignments.
type ClockRecoveryResult struct {
	// Pairs is the number of cross-node constraints extracted.
	Pairs int
	// MAE is the mean absolute local-time prediction error (microseconds)
	// at mid-campaign; NaiveMAE assumes all clocks are perfect.
	MAE, NaiveMAE float64
	// Estimated counts nodes with recovered clocks.
	Estimated int
	Text      string
}

// ClockRecovery runs a campaign, reconstructs flows, recovers clocks, and
// scores them against the logging layer's ground truth.
func ClockRecovery(c *Campaign) *ClockRecoveryResult {
	est := clocksync.Estimate(c.Out.Result.Flows, event.Server)
	// Reconstruct the true clocks deterministically, exactly as the
	// campaign's collector assigned them.
	lc := logging.DefaultConfig(c.Res.Config.Seed + 1)
	lc.LossRate = c.Res.Config.LogLossRate
	coll := logging.NewCollector(lc)
	truth := make(map[event.NodeID]clocksync.Params)
	for _, n := range c.Res.Topology.NodeIDs() {
		cl := coll.Clock(n)
		truth[n] = clocksync.Params{Offset: float64(cl.Offset), Drift: cl.Drift}
	}
	mid := int64(c.Res.Duration) / 2
	zero := &clocksync.Result{Anchor: event.Server, Nodes: map[event.NodeID]clocksync.Params{}}
	for n := range truth {
		zero.Nodes[n] = clocksync.Params{}
	}
	r := &ClockRecoveryResult{
		Pairs:     est.Pairs,
		MAE:       est.MeanAbsOffsetError(truth, mid),
		NaiveMAE:  zero.MeanAbsOffsetError(truth, mid),
		Estimated: len(est.Nodes),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "clock recovery from reconstructed flows (anchor: server)\n")
	fmt.Fprintf(&b, "constraints: %d pairs across %d nodes\n", r.Pairs, r.Estimated)
	fmt.Fprintf(&b, "mean |local-time error| at mid-campaign: %.2fs (uncorrected clocks: %.2fs)\n",
		r.MAE/1e6, r.NaiveMAE/1e6)
	r.Text = b.String()
	return r
}

// ClockRecoveryOn is the convenience wrapper used by the harness.
func ClockRecoveryOn(cfg workload.CitySeeConfig) (*ClockRecoveryResult, error) {
	c, err := RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return ClockRecovery(c), nil
}
