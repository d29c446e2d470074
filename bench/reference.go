package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/report"
	"repro/internal/sim"
)

// reference is the expected result for one campaign, computed in process by
// the serial pipeline: what every refill stdout and every drained report is
// compared against.
type reference struct {
	out *core.Output
	// stdout is byte for byte what cmd/refill prints for this campaign.
	stdout string
	// breakdown is the rendered cause table alone, for the in-process
	// paths that have no stdout.
	breakdown string
	causes    map[string]int
	// causeAgreement is the share of packets both the report and the
	// simulator call lost for which the cause matches.
	causeAgreement float64
}

// analyzer configures the pipeline exactly as cmd/refill does from
// -sink/-days/-workers.
func analyzer(c *campaign, workers int) (*core.Analyzer, error) {
	return core.NewAnalyzer(core.Options{Sink: c.sink, End: c.end()},
		core.WithParallelism(workers), core.WithDailyBins(int64(sim.Day), c.days))
}

func buildReference(c *campaign) (*reference, error) {
	an, err := analyzer(c, 0)
	if err != nil {
		return nil, err
	}
	out := an.Analyze(c.logs)
	inferred, anomalies := 0, 0
	for _, fl := range out.Result.Flows {
		inferred += fl.InferredCount()
		anomalies += len(fl.Anomalies)
	}
	r := &reference{out: out, breakdown: report.Breakdown(out.Report), causes: causeCounts(out.Report)}
	r.stdout = fmt.Sprintf("analyzed %d events across %d node logs -> %d packet flows\n"+
		"inferred %d lost events; %d anomalous records discarded\n\n%s\n",
		c.logs.TotalEvents(), len(c.logs.Logs), len(out.Result.Flows), inferred, anomalies, r.breakdown)
	r.causeAgreement = core.Score(out.Report, c.fates).CauseRate()
	return r, nil
}

func causeCounts(rep *diagnosis.Report) map[string]int {
	m := make(map[string]int)
	for c, n := range rep.Breakdown() {
		m[c.String()] = n
	}
	return m
}

// checkReport compares an in-process report with the reference.
func (r *reference) checkReport(rep *diagnosis.Report) error {
	if got := report.Breakdown(rep); got != r.breakdown {
		return fmt.Errorf("report differs from the reference:\n%s\nwant:\n%s", got, r.breakdown)
	}
	return nil
}

// checkStdout compares a refill child's stdout with the reference.
func (r *reference) checkStdout(got []byte) error {
	if string(got) != r.stdout {
		return fmt.Errorf("refill stdout differs from the reference:\n%s\nwant:\n%s", got, r.stdout)
	}
	return nil
}

// checkDrain compares the JSON a drained refill-serve returned with the
// reference: totals and every per-cause count.
func (r *reference) checkDrain(body []byte) error {
	var got struct {
		Total     int            `json:"total"`
		Losses    int            `json:"losses"`
		Breakdown map[string]int `json:"breakdown"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("drain reply: %w", err)
	}
	rep := r.out.Report
	if got.Total != rep.Total() || got.Losses != rep.LossCount() {
		return fmt.Errorf("drained totals %d/%d, reference %d/%d", got.Total, got.Losses, rep.Total(), rep.LossCount())
	}
	if len(got.Breakdown) != len(r.causes) {
		return fmt.Errorf("drained causes %v, reference %v", got.Breakdown, r.causes)
	}
	for c, n := range r.causes {
		if got.Breakdown[c] != n {
			return fmt.Errorf("drained causes %v, reference %v", got.Breakdown, r.causes)
		}
	}
	return nil
}
