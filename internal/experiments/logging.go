package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/logging"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PolicyRow is one logging policy's measured trade-off.
type PolicyRow struct {
	Name string
	// KeptEvents is the log volume the policy produced (post-collection).
	KeptEvents int
	// VolumeFrac is KeptEvents relative to the full policy's volume.
	VolumeFrac float64
	Acc        core.Accuracy
}

// LoggingPolicyResult is experiment E-A4: diagnosability vs log volume under
// the economy logging policies (the paper's "more efficient and effective
// logging methods" future work).
type LoggingPolicyResult struct {
	Rows []PolicyRow
	Text string
}

// LoggingPolicies runs ONE simulated campaign with one collector per policy
// (identical loss/skew profile) and scores REFILL on each resulting log set.
func LoggingPolicies(cfg workload.CitySeeConfig) (*LoggingPolicyResult, error) {
	policies := []logging.Policy{
		logging.FullPolicy{},
		logging.NewSelectivePolicy(),
		logging.NewSampledPolicy(0.5, 4242),
		logging.ReceiverSidePolicy{},
	}
	net, colls, c, err := workload.BuildMulti(cfg, policies)
	if err != nil {
		return nil, err
	}
	gt := net.Run()
	end := int64(c.Days) * int64(sim.Day)
	an, err := core.NewAnalyzer(core.Options{Sink: net.Sink(), End: end, DropFlows: true}) // scored from the report alone
	if err != nil {
		return nil, err
	}
	res := &LoggingPolicyResult{}
	fullVolume := 0
	for i, p := range policies {
		coll := colls[i]
		kept := coll.Collection().TotalEvents()
		if i == 0 {
			fullVolume = kept
		}
		acc := core.Score(an.Analyze(coll.Collection()).Report, gt.Fates)
		row := PolicyRow{Name: p.Name(), KeptEvents: kept, Acc: acc}
		if fullVolume > 0 {
			row.VolumeFrac = float64(kept) / float64(fullVolume)
		}
		res.Rows = append(res.Rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %8s %8s %8s\n", "policy", "events", "volume", "cause", "position")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-16s %10d %7.1f%% %7.1f%% %7.1f%%\n",
			r.Name, r.KeptEvents, 100*r.VolumeFrac,
			100*r.Acc.CauseRate(), 100*r.Acc.PositionRate())
	}
	res.Text = b.String()
	return res, nil
}

// ExtendedEventsResult is experiment E-A5: the richer event set (queue
// events) of the paper's future work, volume vs diagnosability against the
// standard event set on the same scenario.
type ExtendedEventsResult struct {
	Rows []PolicyRow // reusing the row shape: name, volume, accuracy
	Text string
}

// ExtendedEvents runs the scenario twice — standard and extended event sets —
// and scores each with its matching protocol template.
func ExtendedEvents(cfg workload.CitySeeConfig) (*ExtendedEventsResult, error) {
	type variant struct {
		name     string
		queue    bool
		protocol *fsm.Protocol
	}
	variants := []variant{
		{"standard", false, fsm.DefaultCTP()},
		{"extended", true, fsm.ExtendedCTP()},
	}
	res := &ExtendedEventsResult{}
	base := 0
	for _, v := range variants {
		c := cfg
		c.QueueEvents = v.queue
		run, err := workload.Run(c)
		if err != nil {
			return nil, err
		}
		an, err := core.NewAnalyzer(core.Options{
			Sink: run.Sink, End: int64(run.Duration), Protocol: v.protocol,
			DropFlows: true, // scored from the report alone
		})
		if err != nil {
			return nil, err
		}
		acc := core.Score(an.Analyze(run.Logs).Report, run.Truth.Fates)
		row := PolicyRow{Name: v.name, KeptEvents: run.Logs.TotalEvents(), Acc: acc}
		if base == 0 {
			base = row.KeptEvents
		}
		row.VolumeFrac = float64(row.KeptEvents) / float64(base)
		res.Rows = append(res.Rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %8s %8s %8s\n", "event set", "events", "volume", "cause", "position")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-16s %10d %7.1f%% %7.1f%% %7.1f%%\n",
			r.Name, r.KeptEvents, 100*r.VolumeFrac,
			100*r.Acc.CauseRate(), 100*r.Acc.PositionRate())
	}
	res.Text = b.String()
	return res, nil
}
