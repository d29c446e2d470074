package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA runs every workload twice on the same build and seed and compares
// each end-to-end metric's two medians: the second may not read worse than
// the first by more than the metric's bound. It prints every spread it saw,
// so that bounds are set from data. Each run is a fresh process of this same
// binary, as the driver's runs are: a second run inside one process would set
// up on the heap the first left behind.
func runAA(seed int64, seconds float64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bad := 0
	for _, w := range workloads {
		var runs [2]map[string]float64
		for i := range runs {
			var out bytes.Buffer
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(stderr, "bench: %s: result line: %v\n", w.name, err)
				return 1
			}
			runs[i] = make(map[string]float64)
			for name, m := range res.Metrics {
				runs[i][name] = m.Value
			}
		}
		fmt.Fprintf(stdout, "A/A %s\n%-16s %14s %14s %9s %7s\n", w.name, "metric", "first", "second", "worse by", "bound")
		for _, m := range endToEnd {
			a, b := runs[0][m.Name], runs[1][m.Name]
			worse := m.worseBy(a, b)
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "bench: A/A check: %d metrics outside their bound\n", bad)
		return 1
	}
	return 0
}
