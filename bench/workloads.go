package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/event"
	"repro/internal/workload"
)

// workers is the fan-out every parallel path is pinned to: the box has two
// cores, and "all cores" would make the numbers depend on where they ran.
const workers = 2

// workloadDef is one benchmark workload. why is the line BENCHMARK.json and
// the README carry; setup generates the inputs from the seed and writes them
// under dir; run is one end-to-end pass through the real binary.
type workloadDef struct {
	name, why string
	setup     func(e *env, seed int64, dir string) (*input, error)
	run       func(in *input, e *env, ref *reference) (iteration, error)
}

var workloads = []workloadDef{
	{"batch-text", "CitySee campaign as a text log through serial refill: text decode and Partition are about two thirds of the time, so codec and partition work shows and walk work shows least", setupBatchText, (*input).runRefill},
	{"batch-skew", "hot-origin campaign in the binary codec through refill -workers 2: decode is cheap and one origin dominates, so scheduler, merge and FSM walk do most of the work", setupBatchSkew, (*input).runRefill},
	{"snapshot-ooc", "the batch-text collection as a columnar snapshot through the windowed out-of-core path: no decode, no Partition; pending store and per-window analysis dominate, on the same events as batch-text", setupSnapshot, (*input).runRefill},
	{"serve-replay", "the same campaign streamed to a live refill-serve in 48 time-sliced rounds, closed loop on 2 connections: many small decodes, session windows, reads beside writes, append and advance on one mutex", setupServe, (*input).runServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what a run needs besides the seed.
type env struct {
	bins binaries
	sc   scale
}

// input is one set-up's result: the campaign, and how this workload feeds it
// to the real binaries.
type input struct {
	c   *campaign
	dir string
	// refillArgs is the refill invocation the workload measures. On
	// serve-replay it is the batch equivalent of the stream, which only the
	// traced run uses (for refill.process_overhead_s).
	refillArgs []string
	// inProcess names the two per-layer timings that together are the
	// in-process equal of refillArgs: open or decode, then analyze.
	inProcess [2]string
	// sched and horizon are set on serve-replay, and by the traced run.
	sched   *schedule
	horizon int64
}

func (in *input) path(name string) string { return filepath.Join(in.dir, name) }

func (in *input) sinkArg() string { return strconv.FormatUint(uint64(in.c.sink), 10) }

func (in *input) commonArgs() []string {
	return []string{"-sink", in.sinkArg(), "-days", strconv.Itoa(in.c.days)}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (in *input) writeText() error {
	return writeFile(in.path("campaign.txt"), func(w io.Writer) error { return event.WriteCollection(w, in.c.logs) })
}

func (in *input) writeBinary() error {
	return writeFile(in.path("campaign.bin"), func(w io.Writer) error { return event.WriteCollectionBinary(w, in.c.logs) })
}

func (in *input) binaryArgs() []string {
	return append([]string{"-binary", "-logs", in.path("campaign.bin"), "-workers", strconv.Itoa(workers)}, in.commonArgs()...)
}

func (in *input) slice(rounds int) (err error) {
	in.horizon = event.MaxPacketSpread(in.c.logs)
	in.sched, err = sliceRounds(in.c.logs, rounds, in.c.end())
	return err
}

func setupBatchText(e *env, seed int64, dir string) (*input, error) {
	c, err := genCitySee(e.sc.citySee(seed))
	if err != nil {
		return nil, err
	}
	in := &input{c: c, dir: dir, inProcess: [2]string{"event.decode_text_s", "core.analyze_serial_s"}}
	in.refillArgs = append([]string{"-logs", in.path("campaign.txt")}, in.commonArgs()...)
	return in, in.writeText()
}

func setupBatchSkew(e *env, seed int64, dir string) (*input, error) {
	// The base is the small campaign at every scale: this workload's size
	// comes from replication, not from simulation.
	c, err := genSkew(workload.Tiny(seed), e.sc.skewEvents)
	if err != nil {
		return nil, err
	}
	in := &input{c: c, dir: dir, inProcess: [2]string{"event.decode_binary_s", "core.analyze_par_s"}}
	in.refillArgs = in.binaryArgs()
	return in, in.writeBinary()
}

func setupSnapshot(e *env, seed int64, dir string) (*input, error) {
	c, err := genCitySee(e.sc.citySee(seed))
	if err != nil {
		return nil, err
	}
	in := &input{c: c, dir: dir, inProcess: [2]string{"event.snapshot_open_s", "core.snapshot_par_s"}}
	in.refillArgs = append([]string{"-from-snapshot", in.path("campaign.snap"), "-workers", strconv.Itoa(workers),
		"-window-rows", strconv.Itoa(e.sc.windowRows)}, in.commonArgs()...)
	return in, event.WriteSnapshot(in.path("campaign.snap"), c.logs)
}

func setupServe(e *env, seed int64, dir string) (*input, error) {
	c, err := genCitySee(e.sc.citySee(seed))
	if err != nil {
		return nil, err
	}
	in := &input{c: c, dir: dir, inProcess: [2]string{"event.decode_binary_s", "core.analyze_par_s"}}
	in.refillArgs = in.binaryArgs()
	return in, in.slice(e.sc.rounds)
}

// iteration is one end-to-end pass through a real binary.
type iteration struct {
	wall        time.Duration
	usage       childUsage
	ops, failed int
	replay      *replayStats // serve-replay only
}

// runRefill runs the workload's refill invocation in a fresh process and
// checks its stdout. A mismatch is a failed operation, not an error: the run
// goes on and reports it.
func (in *input) runRefill(e *env, ref *reference) (iteration, error) {
	out, wall, usage, err := runRefill(e.bins.refill, in.refillArgs)
	if err != nil {
		return iteration{}, err
	}
	it := iteration{wall: wall, usage: usage, ops: 1}
	if err := ref.checkStdout(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		it.failed = 1
	}
	return it, nil
}

// runServe starts a fresh refill-serve, replays the schedule against it,
// checks the drained report and shuts the server down. Wall time is the
// replay alone: the service is resident, its start-up is not the caller's
// wait.
func (in *input) runServe(e *env, ref *reference) (iteration, error) {
	srv, err := startServer(e.bins.serve, "-sink", in.sinkArg(),
		"-end", strconv.FormatInt(in.c.end(), 10), "-workers", strconv.Itoa(workers),
		"-horizon", strconv.FormatInt(in.horizon, 10))
	if err != nil {
		return iteration{}, err
	}
	st := replay(srv.base, in.sched)
	usage, err := srv.stop()
	if err != nil {
		return iteration{}, err
	}
	it := iteration{wall: st.wall, usage: usage, ops: st.requests, failed: st.failed, replay: st}
	if err := ref.checkDrain(st.drained); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		it.failed++
	}
	return it, nil
}
