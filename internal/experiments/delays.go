package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clocksync"
	"repro/internal/diagnosis"
	"repro/internal/event"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DelayResult is experiment E-A7: per-packet delay measurement quality with
// and without post-hoc clock recovery, scored against true delays.
type DelayResult struct {
	// Compared is the number of packets with both a measured and true delay.
	Compared int
	// MedianErrCorrected / MedianErrRaw are median |measured − true| delay
	// errors in microseconds.
	MedianErrCorrected, MedianErrRaw int64
	// Summary is the corrected-clock delay/retransmission summary.
	Summary stats.Summary
	Text    string
}

// Delays computes the study on a finished campaign.
func Delays(c *Campaign) *DelayResult {
	clocks := clocksync.Estimate(c.Out.Result.Flows, event.Server)
	corrected := stats.Compute(c.Out.Result.Flows, clocks)
	raw := stats.Compute(c.Out.Result.Flows, nil)
	truth := make(map[event.PacketID]int64)
	for id, f := range c.Res.Truth.Fates {
		if f.Cause == diagnosis.Delivered {
			truth[id] = int64(f.Time - f.GenTime)
		}
	}
	r := &DelayResult{Summary: stats.Summarize(corrected)}
	r.MedianErrCorrected, r.Compared = stats.DelayError(corrected, truth)
	r.MedianErrRaw, _ = stats.DelayError(raw, truth)
	var b strings.Builder
	fmt.Fprintf(&b, "per-packet delay from unsynchronized logs (%d measured packets)\n", r.Compared)
	fmt.Fprintf(&b, "median |delay error|: %.2fs with recovered clocks, %.2fs on raw local clocks\n",
		float64(r.MedianErrCorrected)/1e6, float64(r.MedianErrRaw)/1e6)
	fmt.Fprintf(&b, "delay (corrected): mean %.1fs, p50 %.1fs, p95 %.1fs, max %.1fs\n",
		float64(r.Summary.MeanDelay)/1e6, float64(r.Summary.P50Delay)/1e6,
		float64(r.Summary.P95Delay)/1e6, float64(r.Summary.MaxDelay)/1e6)
	fmt.Fprintf(&b, "mean transmissions per delivered packet: %.2f over %.2f hops\n",
		r.Summary.MeanTransmissions, r.Summary.MeanHops)
	r.Text = b.String()
	return r
}

// DelaysOn is the harness wrapper.
func DelaysOn(cfg workload.CitySeeConfig) (*DelayResult, error) {
	c, err := RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return Delays(c), nil
}
