package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"

	refill "repro"
)

// TestRunModes runs the command on one tiny campaign in all three input
// modes — text, binary over two workers, and a windowed snapshot — with and
// without the flags that read flows. The summary and cause table must be the
// same in every run: from the driver's totals when no flag keeps flows, and
// equal to an in-process Analyze that keeps them and sums over its flows.
// Each flag's section must match across modes too.
func TestRunModes(t *testing.T) {
	camp, err := refill.RunCampaign(refill.TinyCampaign(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	text, bin, snap := filepath.Join(dir, "logs.txt"), filepath.Join(dir, "logs.bin"), filepath.Join(dir, "logs.snap")
	writeLogs(t, text, camp.Logs, refill.WriteLogs)
	writeLogs(t, bin, camp.Logs, refill.WriteLogsBinary)
	if err := refill.WriteSnapshot(snap, camp.Logs); err != nil {
		t.Fatal(err)
	}

	const days = 30 // the -days default
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{Sink: camp.Sink, End: days * int64(sim.Day)})
	if err != nil {
		t.Fatal(err)
	}
	out := an.Analyze(camp.Logs)
	inferred, anomalies := 0, 0
	for _, f := range out.Result.Flows {
		inferred += f.InferredCount()
		anomalies += len(f.Anomalies)
	}
	if inferred == 0 {
		t.Fatal("the campaign infers nothing; the inferred count is not checked")
	}
	summary := fmt.Sprintf("analyzed %d events across %d node logs -> %d packet flows\n"+
		"inferred %d lost events; %d anomalous records discarded\n\n%s\n",
		camp.Logs.TotalEvents(), len(camp.Logs.Logs), len(out.Result.Flows), inferred, anomalies,
		refill.RenderBreakdown(out.Report))

	sink := fmt.Sprint(camp.Sink)
	modes := map[string][]string{
		"text":     {"-logs", text, "-sink", sink},
		"binary":   {"-binary", "-logs", bin, "-sink", sink, "-workers", "2"},
		"snapshot": {"-from-snapshot", snap, "-sink", sink, "-window-rows", "4096"},
	}
	extras := map[string][]string{
		"none":         nil,
		"flows":        {"-flows", "5"},
		"clocks":       {"-clocks"},
		"flows+clocks": {"-flows", "5", "-clocks"},
	}
	tails := make(map[string]string) // by extras: what follows the summary in text mode
	for _, mode := range []string{"text", "binary", "snapshot"} {
		for _, extra := range []string{"none", "flows", "clocks", "flows+clocks"} {
			var stdout bytes.Buffer
			if err := run(append(append([]string(nil), modes[mode]...), extras[extra]...), &stdout); err != nil {
				t.Fatalf("%s %s: %v", mode, extra, err)
			}
			got := stdout.String()
			tail, ok := strings.CutPrefix(got, summary)
			if !ok {
				t.Fatalf("%s %s: output does not open with the summary:\n%s\nwant:\n%s", mode, extra, got, summary)
			}
			if extra == "none" && tail != "" {
				t.Errorf("%s: %q printed after the summary without a flow flag", mode, tail)
			}
			if want, seen := tails[extra]; seen && tail != want {
				t.Errorf("%s %s: diverged from text mode:\n%s\nwant:\n%s", mode, extra, tail, want)
			}
			tails[extra] = tail
		}
	}
	if !strings.HasPrefix(tails["flows"], "sample event flows:\n") || strings.Count(tails["flows"], "\n") != 7 {
		t.Errorf("-flows 5 printed %q, want a heading, five flows and a blank line", tails["flows"])
	}
	if !strings.HasPrefix(tails["clocks"], "recovered clocks for ") {
		t.Errorf("-clocks printed %q", tails["clocks"])
	}
	if tails["flows+clocks"] != tails["flows"]+tails["clocks"] {
		t.Error("-flows 5 -clocks is not -flows 5's section followed by -clocks'")
	}
}

func writeLogs(t *testing.T, path string, c *refill.Collection, write func(io.Writer, *refill.Collection) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
