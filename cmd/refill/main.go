// Command refill runs the REFILL pipeline over a collected log file:
// it reconstructs per-packet event flows from the lossy, unsynchronized
// per-node logs, prints the diagnosis report, and optionally scores the
// reconstruction against simulator ground truth or prints a single packet's
// trace / event flow.
//
// Usage:
//
//	refill -logs logs.txt -sink 1 [-truth truth.txt] [-trace 17:42] [-flows 3]
//	refill -from-snapshot logs.snap -sink 1
//	refill convert -in logs.txt -out logs.snap
//
// A columnar snapshot (-from-snapshot, or the convert subcommand's default
// output) is a page-aligned image of the in-memory collection: it opens as
// a memory-mapped file with no parse step and no per-event allocations,
// which is the fastest way to re-analyze a large campaign. -from-snapshot
// analyzes out of core by default — windowed reconstruction that reads each
// node's rows of a window from the file, so snapshots larger than memory
// work; tune the residency window with -window-rows.
//
// Flows are kept only when a flag reads them (-flows, -trace, -clocks): the
// summary's packet, inferred-event and anomaly counts and the cause table
// come from the driver's totals and the report, so a run without those
// flags drops each flow once it is counted and classified.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sim/network"

	refill "repro"
)

// errUsage reports a command line that was refused after its problem was
// printed with the usage text; main exits 2 on it, as package flag does.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "refill:", err)
		os.Exit(1)
	}
}

// run is the whole command over args (without the program name), printing
// its report to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "convert" {
		return runConvert(args[1:], stdout)
	}
	fs := flag.NewFlagSet("refill", flag.ContinueOnError)
	var (
		logsPath  = fs.String("logs", "", "input log file (required unless -from-snapshot)")
		fromSnap  = fs.String("from-snapshot", "", "read the collection from a columnar snapshot file instead of -logs")
		writeSnap = fs.String("snapshot", "", "also write the input collection to this columnar snapshot file")
		sinkID    = fs.Uint("sink", 1, "sink node id")
		truthPath = fs.String("truth", "", "optional ground-truth fate file to score against")
		tracePkt  = fs.String("trace", "", "print the trace of one packet (origin:seq)")
		showFlows = fs.Int("flows", 0, "print the first N reconstructed event flows")
		days      = fs.Int("days", 30, "campaign length in days (bounds open outage windows)")
		binFormat = fs.Bool("binary", false, "input is the compact binary log format")
		clocks    = fs.Bool("clocks", false, "recover per-node clock offsets from the flows")
		workers   = fs.Int("workers", 0, "reconstruction workers (n > 0 exactly n, -1 all cores, 0 the input's default: serial for -logs, all cores for -from-snapshot)")
		winRows   = fs.Int("window-rows", 0, "residency window size in rows for the out-of-core -from-snapshot path (0 = default)")
		prof      profiling.Flags
	)
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if (*logsPath == "") == (*fromSnap == "") {
		fmt.Fprintln(fs.Output(), "refill: exactly one of -logs and -from-snapshot is required")
		fs.Usage()
		return errUsage
	}
	stopProf, err := profiling.Start(prof)
	if err != nil {
		return err
	}
	defer stopProf()
	var logs *refill.Collection
	var snap *refill.Snapshot
	if *fromSnap != "" {
		snap, err = refill.OpenSnapshot(*fromSnap)
		if err != nil {
			return err
		}
		// The collection's columns alias the mapping, so the snapshot
		// stays open until run returns.
		defer snap.Close()
		logs = snap.Collection()
	} else {
		f, err := os.Open(*logsPath)
		if err != nil {
			return err
		}
		readLogs := refill.ReadLogs
		if *binFormat {
			readLogs = refill.ReadLogsBinary
		}
		logs, err = readLogs(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if *writeSnap != "" {
		if err := refill.WriteSnapshot(*writeSnap, logs); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote snapshot %s (%d events)\n", *writeSnap, logs.TotalEvents())
	}
	// Only -flows, -trace and -clocks read flows; without them every flow
	// is dropped as soon as the driver has counted and classified it.
	keep := *showFlows > 0 || *tracePkt != "" || *clocks
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{
		Sink:      refill.NodeID(*sinkID),
		End:       int64(*days) * int64(sim.Day),
		DropFlows: !keep,
	}, refill.WithParallelism(*workers), refill.WithDailyBins(int64(sim.Day), *days))
	if err != nil {
		return err
	}
	var out *refill.Output
	if snap != nil {
		// Out of core off a snapshot: windowed reconstruction reads each
		// node's rows of a window from the file, so no more of the snapshot
		// is resident than one span of columns and the pending rows, and
		// snapshots larger than memory analyze fine.
		out = an.AnalyzeSnapshot(snap, refill.SnapshotOptions{
			WindowRows:    *winRows,
			SessionConfig: refill.SessionConfig{RetainFlows: keep},
		})
	} else {
		out = an.Analyze(logs)
	}

	fmt.Fprintf(stdout, "analyzed %d events across %d node logs -> %d packet flows\n",
		logs.TotalEvents(), len(logs.Logs), len(out.Report.Outcomes))
	fmt.Fprintf(stdout, "inferred %d lost events; %d anomalous records discarded\n\n",
		out.Result.InferredEvents, out.Result.Anomalies)
	fmt.Fprintln(stdout, refill.RenderBreakdown(out.Report))

	if *showFlows > 0 {
		fmt.Fprintln(stdout, "sample event flows:")
		for i, fl := range out.Result.Flows {
			if i >= *showFlows {
				break
			}
			fmt.Fprintf(stdout, "  %s: %s\n", fl.Packet, fl)
		}
		fmt.Fprintln(stdout)
	}
	if *tracePkt != "" {
		pid, err := parsePacket(*tracePkt)
		if err != nil {
			return err
		}
		fl := out.Flow(pid)
		if fl == nil {
			fmt.Fprintf(stdout, "packet %s: no events in the logs\n", pid)
		} else {
			fmt.Fprintf(stdout, "event flow: %s\n", fl)
			fmt.Fprint(stdout, refill.BuildTrace(fl))
		}
	}
	if *clocks {
		cm := refill.RecoverClocks(out.Result.Flows, refill.Server)
		fmt.Fprintf(stdout, "recovered clocks for %d nodes from %d cross-node pairs; worst offsets:\n",
			len(cm.Nodes), cm.Pairs)
		printed := 0
		for _, n := range logs.Nodes() {
			p, ok := cm.Offset(n)
			if !ok || n == refill.Server {
				continue
			}
			if p.Offset > 10e6 || p.Offset < -10e6 {
				fmt.Fprintf(stdout, "  node %-6s offset %+.1fs drift %+.1fppm\n",
					n, p.Offset/1e6, p.Drift*1e6)
				printed++
			}
			if printed >= 10 {
				break
			}
		}
		fmt.Fprintln(stdout)
	}
	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			return err
		}
		fates, err := network.ReadFates(tf)
		tf.Close()
		if err != nil {
			return err
		}
		acc := refill.Score(out.Report, fates)
		fmt.Fprintln(stdout, "accuracy vs ground truth:")
		fmt.Fprint(stdout, report.AccuracyTable([]report.AccuracyRow{{Name: "refill", Acc: acc}}))
	}
	return nil
}

// runConvert is the convert subcommand: re-encode a collection between the
// text, binary and snapshot formats without analyzing it.
func runConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("refill convert", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "input file (required)")
		out       = fs.String("out", "", "output file (required)")
		inFormat  = fs.String("in-format", "text", "input format: text, binary or snapshot")
		outFormat = fs.String("out-format", "snapshot", "output format: snapshot, binary or text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(fs.Output(), "refill convert: -in and -out are required")
		fs.Usage()
		return errUsage
	}

	var logs *refill.Collection
	switch *inFormat {
	case "snapshot":
		snap, err := refill.OpenSnapshot(*in)
		if err != nil {
			return err
		}
		// Output encoders read straight out of the mapping; close only
		// after the write below completes.
		defer snap.Close()
		logs = snap.Collection()
	case "text", "binary":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		read := refill.ReadLogs
		if *inFormat == "binary" {
			read = refill.ReadLogsBinary
		}
		logs, err = read(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("convert: unknown -in-format %q", *inFormat)
	}

	switch *outFormat {
	case "snapshot":
		if err := refill.WriteSnapshot(*out, logs); err != nil {
			return err
		}
	case "text", "binary":
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		write := refill.WriteLogs
		if *outFormat == "binary" {
			write = refill.WriteLogsBinary
		}
		err = write(f, logs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("convert: unknown -out-format %q", *outFormat)
	}
	fmt.Fprintf(stdout, "converted %d events across %d node logs: %s (%s) -> %s (%s)\n",
		logs.TotalEvents(), len(logs.Logs), *in, *inFormat, *out, *outFormat)
	return nil
}

func parsePacket(s string) (refill.PacketID, error) {
	var pid refill.PacketID
	var origin, seq uint32
	if _, err := fmt.Sscanf(s, "%d:%d", &origin, &seq); err != nil {
		return pid, fmt.Errorf("bad packet id %q (want origin:seq)", s)
	}
	pid.Origin = refill.NodeID(origin)
	pid.Seq = seq
	return pid, nil
}
