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
// output) is a page-aligned image of the in-memory collection: analysis runs
// directly over the memory-mapped file with no parse step and no per-event
// allocations, which is the fastest way to re-analyze a large campaign.
// -from-snapshot analyzes out of core by default — windowed reconstruction
// straight off the mapping, so snapshots larger than memory work; tune the
// residency window with -window-rows.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sim/network"

	refill "repro"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		runConvert(os.Args[2:])
		return
	}
	var (
		logsPath  = flag.String("logs", "", "input log file (required unless -from-snapshot)")
		fromSnap  = flag.String("from-snapshot", "", "read the collection from a columnar snapshot file instead of -logs")
		writeSnap = flag.String("snapshot", "", "also write the input collection to this columnar snapshot file")
		sinkID    = flag.Uint("sink", 1, "sink node id")
		truthPath = flag.String("truth", "", "optional ground-truth fate file to score against")
		tracePkt  = flag.String("trace", "", "print the trace of one packet (origin:seq)")
		showFlows = flag.Int("flows", 0, "print the first N reconstructed event flows")
		days      = flag.Int("days", 30, "campaign length in days (bounds open outage windows)")
		binFormat = flag.Bool("binary", false, "input is the compact binary log format")
		clocks    = flag.Bool("clocks", false, "recover per-node clock offsets from the flows")
		workers   = flag.Int("workers", 0, "reconstruction workers (n > 0 exactly n, -1 all cores, 0 the input's default: serial for -logs, all cores for -from-snapshot)")
		winRows   = flag.Int("window-rows", 0, "residency window size in rows for the out-of-core -from-snapshot path (0 = default)")
		prof      profiling.Flags
	)
	prof.Register(flag.CommandLine)
	flag.Parse()
	if (*logsPath == "") == (*fromSnap == "") {
		fmt.Fprintln(os.Stderr, "refill: exactly one of -logs and -from-snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(prof)
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	var logs *refill.Collection
	var snap *refill.Snapshot
	if *fromSnap != "" {
		snap, err = refill.OpenSnapshot(*fromSnap)
		if err != nil {
			fatal(err)
		}
		// The collection's columns alias the mapping, so the snapshot
		// stays open for the life of the process.
		defer snap.Close()
		logs = snap.Collection()
	} else {
		f, err := os.Open(*logsPath)
		if err != nil {
			fatal(err)
		}
		readLogs := refill.ReadLogs
		if *binFormat {
			readLogs = refill.ReadLogsBinary
		}
		logs, err = readLogs(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *writeSnap != "" {
		if err := refill.WriteSnapshot(*writeSnap, logs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote snapshot %s (%d events)\n", *writeSnap, logs.TotalEvents())
	}
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{
		Sink: refill.NodeID(*sinkID),
		End:  int64(*days) * int64(sim.Day),
	}, refill.WithParallelism(*workers), refill.WithDailyBins(int64(sim.Day), *days))
	if err != nil {
		fatal(err)
	}
	var out *refill.Output
	if snap != nil {
		// Out of core off a snapshot: windowed reconstruction straight off
		// the mapping keeps the working set to ~two residency windows, so
		// snapshots larger than memory analyze fine. Flows are retained (the
		// flow count, -flows, -trace and -clocks below read them).
		out = an.AnalyzeSnapshot(snap, refill.SnapshotOptions{
			WindowRows:    *winRows,
			SessionConfig: refill.SessionConfig{RetainFlows: true},
		})
	} else {
		out = an.Analyze(logs)
	}

	fmt.Printf("analyzed %d events across %d node logs -> %d packet flows\n",
		logs.TotalEvents(), len(logs.Logs), len(out.Result.Flows))
	inferred, anomalies := 0, 0
	for _, fl := range out.Result.Flows {
		inferred += fl.InferredCount()
		anomalies += len(fl.Anomalies)
	}
	fmt.Printf("inferred %d lost events; %d anomalous records discarded\n\n", inferred, anomalies)
	fmt.Println(refill.RenderBreakdown(out.Report))

	if *showFlows > 0 {
		fmt.Println("sample event flows:")
		for i, fl := range out.Result.Flows {
			if i >= *showFlows {
				break
			}
			fmt.Printf("  %s: %s\n", fl.Packet, fl)
		}
		fmt.Println()
	}
	if *tracePkt != "" {
		pid, err := parsePacket(*tracePkt)
		if err != nil {
			fatal(err)
		}
		fl := out.Flow(pid)
		if fl == nil {
			fmt.Printf("packet %s: no events in the logs\n", pid)
		} else {
			fmt.Printf("event flow: %s\n", fl)
			fmt.Print(refill.BuildTrace(fl))
		}
	}
	if *clocks {
		cm := refill.RecoverClocks(out.Result.Flows, refill.Server)
		fmt.Printf("recovered clocks for %d nodes from %d cross-node pairs; worst offsets:\n",
			len(cm.Nodes), cm.Pairs)
		printed := 0
		for _, n := range logs.Nodes() {
			p, ok := cm.Offset(n)
			if !ok || n == refill.Server {
				continue
			}
			if p.Offset > 10e6 || p.Offset < -10e6 {
				fmt.Printf("  node %-6s offset %+.1fs drift %+.1fppm\n",
					n, p.Offset/1e6, p.Drift*1e6)
				printed++
			}
			if printed >= 10 {
				break
			}
		}
		fmt.Println()
	}
	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			fatal(err)
		}
		fates, err := network.ReadFates(tf)
		tf.Close()
		if err != nil {
			fatal(err)
		}
		acc := refill.Score(out.Report, fates)
		fmt.Println("accuracy vs ground truth:")
		fmt.Print(report.AccuracyTable([]report.AccuracyRow{{Name: "refill", Acc: acc}}))
	}
}

// runConvert is the convert subcommand: re-encode a collection between the
// text, binary and snapshot formats without analyzing it.
func runConvert(args []string) {
	fs := flag.NewFlagSet("refill convert", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "input file (required)")
		out       = fs.String("out", "", "output file (required)")
		inFormat  = fs.String("in-format", "text", "input format: text, binary or snapshot")
		outFormat = fs.String("out-format", "snapshot", "output format: snapshot, binary or text")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "refill convert: -in and -out are required")
		fs.Usage()
		os.Exit(2)
	}

	var logs *refill.Collection
	switch *inFormat {
	case "snapshot":
		snap, err := refill.OpenSnapshot(*in)
		if err != nil {
			fatal(err)
		}
		// Output encoders read straight out of the mapping; close only
		// after the write below completes.
		defer snap.Close()
		logs = snap.Collection()
	case "text", "binary":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		read := refill.ReadLogs
		if *inFormat == "binary" {
			read = refill.ReadLogsBinary
		}
		logs, err = read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("convert: unknown -in-format %q", *inFormat))
	}

	switch *outFormat {
	case "snapshot":
		if err := refill.WriteSnapshot(*out, logs); err != nil {
			fatal(err)
		}
	case "text", "binary":
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
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
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("convert: unknown -out-format %q", *outFormat))
	}
	fmt.Printf("converted %d events across %d node logs: %s (%s) -> %s (%s)\n",
		logs.TotalEvents(), len(logs.Logs), *in, *inFormat, *out, *outFormat)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "refill:", err)
	os.Exit(1)
}
