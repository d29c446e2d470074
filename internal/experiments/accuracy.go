package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// verdictJudgments converts baseline verdicts into scoreable judgments.
func verdictJudgments(vs map[event.PacketID]baseline.Verdict) map[event.PacketID]core.Judgment {
	out := make(map[event.PacketID]core.Judgment, len(vs))
	for id, v := range vs {
		out[id] = core.Judgment{Cause: v.Cause, Position: v.Position}
	}
	return out
}

// AnalyzerRun scores one analyzer on one campaign.
type AnalyzerRun struct {
	Name string
	Acc  core.Accuracy
}

// ScoreAllAnalyzers runs REFILL and every baseline over a finished campaign
// and scores them against ground truth.
func ScoreAllAnalyzers(c *Campaign) []AnalyzerRun {
	fates := c.Res.Truth.Fates
	rows := []AnalyzerRun{
		{Name: "refill", Acc: core.Score(c.Out.Report, fates)},
		{Name: "naive", Acc: core.ScoreJudgments(verdictJudgments(baseline.Naive(c.Res.Logs)), fates)},
		{Name: "clockmerge", Acc: core.ScoreJudgments(verdictJudgments(baseline.ClockMerge(c.Res.Logs)), fates)},
	}
	lost := baseline.SinkView(c.Res.Logs, int64(c.Res.Config.Period))
	tc := baseline.TimeCorr(c.Res.Logs, lost, int64(sim.Hour))
	rows = append(rows, AnalyzerRun{
		Name: "timecorr",
		Acc:  core.ScoreJudgments(verdictJudgments(tc), fates),
	})
	return rows
}

// AccuracyVsLogLoss sweeps the log-record loss rate and scores every
// analyzer at each point (experiment E-A1). Higher log loss should widen
// REFILL's margin over the baselines until evidence runs out entirely.
type AccuracyVsLogLossResult struct {
	Rates []float64
	// Rows[i] are the analyzer scores at Rates[i].
	Rows [][]AnalyzerRun
	Text string
}

// AccuracyVsLogLoss runs the sweep on variations of the base campaign.
func AccuracyVsLogLoss(base workload.CitySeeConfig, rates []float64) (*AccuracyVsLogLossResult, error) {
	res := &AccuracyVsLogLossResult{Rates: rates}
	var b strings.Builder
	for _, rate := range rates {
		cfg := base
		cfg.LogLossRate = rate
		if rate == 0 {
			// The workload treats 0 as "use default"; nudge it to a
			// near-zero rate to express "lossless collection".
			cfg.LogLossRate = 1e-9
		}
		c, err := RunCampaign(cfg)
		if err != nil {
			return nil, err
		}
		rows := ScoreAllAnalyzers(c)
		res.Rows = append(res.Rows, rows)
		fmt.Fprintf(&b, "log loss rate %.0f%%:\n", 100*rate)
		var rrows []report.AccuracyRow
		for _, r := range rows {
			rrows = append(rrows, report.AccuracyRow{Name: r.Name, Acc: r.Acc})
		}
		b.WriteString(report.AccuracyTable(rrows))
	}
	res.Text = b.String()
	return res, nil
}

// AblationResult compares the full engine against intra-only, inter-only and
// neither (experiment E-A2).
type AblationResult struct {
	Rows []AnalyzerRun
	Text string
}

// Ablations scores the engine variants on one campaign's logs.
func Ablations(cfg workload.CitySeeConfig) (*AblationResult, error) {
	res, err := workload.Run(cfg)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name         string
		intra, inter bool // disabled flags
	}{
		{"full", false, false},
		{"no-intra", true, false},
		{"no-inter", false, true},
		{"neither", true, true},
	}
	out := &AblationResult{}
	var rrows []report.AccuracyRow
	for _, v := range variants {
		an, err := core.NewAnalyzer(core.Options{
			Sink: res.Sink, End: int64(res.Duration),
			DisableIntra: v.intra, DisableInter: v.inter,
			DropFlows: true, // scored from the report alone
		})
		if err != nil {
			return nil, err
		}
		acc := core.Score(an.Analyze(res.Logs).Report, res.Truth.Fates)
		out.Rows = append(out.Rows, AnalyzerRun{Name: v.name, Acc: acc})
		rrows = append(rrows, report.AccuracyRow{Name: v.name, Acc: acc})
	}
	out.Text = report.AccuracyTable(rrows)
	return out, nil
}
