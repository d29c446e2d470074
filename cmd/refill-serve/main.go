// Command refill-serve runs the REFILL pipeline as a resident ingest
// service: log retrievers push per-node fragments as they collect them, the
// daemon finalizes packets as the watermark advances, and clients query live
// diagnosis reports at any point — without waiting for the campaign to end
// or holding every event in memory.
//
// Usage:
//
//	refill-serve -sink 1 -end 2592000000000 [-addr :8377] [-horizon 5000000]
//
// # Endpoints
//
//	POST /v1/append    body: a log collection — text format by default,
//	                   the compact binary codec with
//	                   Content-Type: application/octet-stream. Each node log
//	                   in the body is appended as that node's next fragment
//	                   (fragments must arrive in log order per node).
//	                   ?through=T additionally punctuates every node in the
//	                   body at T after its rows: the node promises nothing
//	                   more below local time T, so its watermark reaches T
//	                   even if its last row is older. The whole body is
//	                   decoded before anything is appended, so a malformed
//	                   one (400) changes nothing. A body over 64 MiB
//	                   (maxAppendBody) is refused with 413, also before
//	                   anything is appended. The reply is
//	                   {"ingested":rows,"nodes":node logs in the body}.
//	POST /v1/register  ?node=N — make node count toward the watermark
//	                   before its first fragment. Register every log source
//	                   up front, or early advances may finalize packets
//	                   whose rows at still-unseen nodes are yet to arrive.
//	                   ?through=T registers the node already punctuated at
//	                   T, for a source known to have nothing below T.
//	POST /v1/advance   ?watermark=T — finalize packets provably complete
//	                   below the watermark (clamped to the slowest node, and
//	                   while an outage is open to -end or its start).
//	GET  /v1/report    live JSON report snapshot; ?format=text renders the
//	                   cause table instead.
//	GET  /v1/stats     lifecycle counters (watermark, pending rows, ...).
//	                   The watermark reads -9223372036854775808
//	                   (math.MinInt64) until an advance first moves it.
//	POST /v1/drain     finalize everything and return the final report;
//	                   further appends fail.
//	POST /v1/checkpoint  (with -checkpoint-dir) write a checkpoint now.
//	GET  /healthz      liveness.
//
// # Checkpointing
//
// With -checkpoint-dir the daemon periodically persists the session — the
// pending packet rows, per-node watermarks and accumulated outcomes — to
// <dir>/session.ckpt (atomically: temp file + rename), every
// -checkpoint-every interval and on demand via POST /v1/checkpoint. On
// startup, an existing checkpoint is resumed: retrievers re-push anything
// they sent after the last checkpoint (per-node fragments in log order, as
// always) and the drained report comes out byte-identical to a run that
// never crashed. -sink and -horizon must match the checkpoint's; -start and
// -workers follow the restarted daemon: a report is its outcomes, and its
// daily bins count from the restarted daemon's -start. Checkpointing requires
// -retain-flows to be off.
//
// # Steady-state allocation
//
// An append allocates only what the session keeps plus the decoded body:
// binary bodies are read through a recycled 64 KiB reader, a text body of
// declared length is decoded with a line buffer and logs no larger than it
// needs, and each node log
// of the decoded body is appended straight from its columns, a column copy
// per run of packet rows (Session.AppendRows). An advance retires straight
// into packet views held in one window the session recycles, so a window
// allocates no partition of its own. Without -retain-flows it builds each
// finalized flow into one small arena per engine worker, recycled as soon as
// the flow is classified, so no window commits flows only to drop them.
//
// # Transport
//
// With -tls-cert/-tls-key the listener speaks HTTP/2 (negotiated via TLS
// ALPN by net/http) and HTTP/1.1; without them it serves plain HTTP/1.1.
// On SIGINT/SIGTERM the daemon stops accepting requests, finishes in-flight
// ones, drains the session, and prints the final cause table to stdout.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	refill "repro"
)

func main() {
	var (
		addr    = flag.String("addr", ":8377", "listen address")
		sinkID  = flag.Uint("sink", 0, "sink node id (required)")
		start   = flag.Int64("start", 0, "campaign start time (daily-bin epoch)")
		end     = flag.Int64("end", 0, "campaign end time (bounds a trailing open outage at drain)")
		workers = flag.Int("workers", 0, "reconstruction workers per window (0 all cores, n>0 exactly n)")
		horizon = flag.Int64("horizon", 0, "max within-packet timestamp spread: clock skew + packet lifetime")
		retain  = flag.Bool("retain-flows", false, "keep finalized flows in memory for the drained result")
		ckptDir = flag.String("checkpoint-dir", "", "directory for durable session checkpoints (resumed on startup)")
		ckptDur = flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval with -checkpoint-dir (0 = on demand only)")
		tlsCert = flag.String("tls-cert", "", "TLS certificate file (with -tls-key enables HTTPS + HTTP/2)")
		tlsKey  = flag.String("tls-key", "", "TLS key file")
	)
	flag.Parse()
	if *sinkID == 0 {
		fmt.Fprintln(os.Stderr, "refill-serve: -sink is required")
		flag.Usage()
		os.Exit(2)
	}
	if *ckptDir != "" && *retain {
		fmt.Fprintln(os.Stderr, "refill-serve: -checkpoint-dir is incompatible with -retain-flows (flows are not serializable)")
		os.Exit(2)
	}
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{
		Sink:        refill.NodeID(*sinkID),
		Start:       *start,
		End:         *end,
		Parallelism: *workers,
	})
	if err != nil {
		fatal(err)
	}
	sc := refill.SessionConfig{Horizon: *horizon, RetainFlows: *retain}
	var (
		sess     *refill.Session
		ckptPath string
	)
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		ckptPath = filepath.Join(*ckptDir, "session.ckpt")
	}
	if ckptPath != "" && fileExists(ckptPath) {
		sess, err = an.ResumeSession(sc, ckptPath)
		if err != nil {
			fatal(fmt.Errorf("resume %s: %w", ckptPath, err))
		}
		st := sess.Stats()
		fmt.Fprintf(os.Stderr, "refill-serve: resumed %s (watermark %d, %d finalized, %d pending rows)\n",
			ckptPath, st.Watermark, st.FinalizedPackets, st.PendingRows)
	} else {
		sess, err = an.NewSession(sc)
		if err != nil {
			fatal(err)
		}
	}
	stopCkpt := startCheckpointer(sess, ckptPath, *ckptDur)
	defer stopCkpt()

	srv := &http.Server{Addr: *addr, Handler: newHandler(sess, ckptPath)}
	errc := make(chan error, 1)
	go func() {
		if *tlsCert != "" || *tlsKey != "" {
			errc <- srv.ListenAndServeTLS(*tlsCert, *tlsKey)
		} else {
			errc <- srv.ListenAndServe()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "refill-serve: %v, draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "refill-serve: shutdown: %v\n", err)
	}
	_, rep := sess.Drain()
	fmt.Print(refill.RenderBreakdown(rep))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "refill-serve: %v\n", err)
	os.Exit(1)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// startCheckpointer writes the session to path every interval until the
// returned stop function is called. A drained session stops the loop (the
// final report is the durable artifact at that point); other write errors
// are logged and retried next tick.
func startCheckpointer(sess *refill.Session, path string, every time.Duration) (stop func()) {
	if path == "" || every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := sess.WriteCheckpoint(path); err != nil {
					if errors.Is(err, refill.ErrSessionDrained) {
						return
					}
					fmt.Fprintf(os.Stderr, "refill-serve: checkpoint: %v\n", err)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// newHandler wires the session endpoints onto a mux. Split out of main so
// tests can mount the service on httptest servers (including HTTP/2 ones).
// ckptPath enables the on-demand checkpoint endpoint ("" disables it).
func newHandler(sess *refill.Session, ckptPath string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if ckptPath == "" {
			httpError(w, http.StatusNotFound, errors.New("checkpointing is not enabled (start with -checkpoint-dir)"))
			return
		}
		if err := sess.WriteCheckpoint(ckptPath); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, map[string]string{"path": ckptPath})
	})
	mux.HandleFunc("POST /v1/append", func(w http.ResponseWriter, r *http.Request) {
		through, err := throughParam(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		logs, err := readAppendBody(w, r)
		if err != nil {
			code := http.StatusBadRequest
			if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, err)
			return
		}
		ingested, nodes := 0, logs.Nodes()
		for _, n := range nodes {
			b := logs.Log(n).Batch()
			if err := sess.AppendRows(n, b, 0, b.Len()); err != nil {
				httpError(w, http.StatusConflict, err)
				return
			}
			if through != math.MinInt64 {
				sess.Punctuate(n, through)
			}
			ingested += b.Len()
		}
		writeJSON(w, map[string]int{"ingested": ingested, "nodes": len(nodes)})
	})
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		n, err := refill.ParseNode(r.URL.Query().Get("node"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		through, err := throughParam(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		sess.Punctuate(n, through) // Register(n) when through= is absent
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/advance", func(w http.ResponseWriter, r *http.Request) {
		wm, err := strconv.ParseInt(r.URL.Query().Get("watermark"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad watermark: %w", err))
			return
		}
		n, err := sess.Advance(wm)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, map[string]int64{"finalized": int64(n), "watermark": sess.Watermark()})
	})
	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {
		rep := sess.Snapshot()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, refill.RenderBreakdown(rep))
			return
		}
		writeJSON(w, reportJSON(rep))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sess.Stats())
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		_, rep := sess.Drain()
		writeJSON(w, reportJSON(rep))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxAppendBody caps one POST /v1/append body at 64 MiB, about 2.3 million
// binary rows: far above any fragment a retriever pushes (the benchmark's
// replay sends about 6.4 KB), small enough that a hostile or runaway client
// cannot make the daemon decode without bound.
const maxAppendBody = 64 << 20

// bodyReaders is a small fixed free list of the read buffers of binary
// append bodies. The binary decoder reads through a 64 KiB bufio.Reader, and
// bufio.NewReaderSize hands back a reader that is already one unchanged, so
// a recycled reader replaces a fresh 64 KiB buffer per request. Unlike a
// sync.Pool, which the race detector drops puts from at random, the list
// recycles the same way in every build; a request beyond its capacity in
// flight reads through a fresh reader that is dropped afterwards.
var bodyReaders = make(chan *bufio.Reader, 8)

// maxSizedBody is the largest declared Content-Length a text append body is
// sized from. The length is the client's claim: net/http never reads past
// it, but a client may send less, so it is trusted only as far as a
// reservation of about 2 MB of columns (1 MiB over the shortest line).
const maxSizedBody = 1 << 20

// sizedBody is a text append body of declared length n. Its Len is what
// the text decoder sizes its line buffer and its node logs from.
type sizedBody struct {
	io.Reader
	n int
}

func (b sizedBody) Len() int { return b.n }

// readAppendBody decodes an append body, text or binary by Content-Type,
// through a reader capped at maxAppendBody: past the cap the decode fails
// with an error wrapping *http.MaxBytesError. A text body that declares a
// length of at most maxSizedBody is decoded as one of that size; a chunked
// or larger one is decoded as a stream of unknown size.
func readAppendBody(w http.ResponseWriter, r *http.Request) (*refill.Collection, error) {
	body := http.MaxBytesReader(w, r.Body, maxAppendBody)
	if r.Header.Get("Content-Type") != "application/octet-stream" {
		if n := r.ContentLength; n >= 0 && n <= maxSizedBody {
			return refill.ReadLogs(sizedBody{body, int(n)})
		}
		return refill.ReadLogs(body)
	}
	var br *bufio.Reader
	select {
	case br = <-bodyReaders:
		br.Reset(body)
	default:
		br = bufio.NewReaderSize(body, 64<<10)
	}
	logs, err := refill.ReadLogsBinary(br)
	br.Reset(nil) // hold no reference to the finished request
	select {
	case bodyReaders <- br:
	default:
	}
	return logs, err
}

// throughParam reads the optional ?through=T punctuation. Without one it
// returns math.MinInt64, which punctuates nothing: Punctuate(n,
// math.MinInt64) is Register(n).
func throughParam(r *http.Request) (int64, error) {
	v := r.URL.Query().Get("through")
	if v == "" {
		return math.MinInt64, nil
	}
	through, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad through: %w", err)
	}
	return through, nil
}

// outageView is one outage window in the JSON report.
type outageView struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// reportView is the wire form of a report snapshot: the cause breakdown
// keyed by cause name, plus totals and the outage schedule.
type reportView struct {
	Sink      string         `json:"sink"`
	Total     int            `json:"total"`
	Losses    int            `json:"losses"`
	Breakdown map[string]int `json:"breakdown"`
	Outages   []outageView   `json:"outages"`
}

func reportJSON(rep *refill.Report) reportView {
	v := reportView{
		Sink:      rep.Sink.String(),
		Total:     rep.Total(),
		Losses:    rep.LossCount(),
		Breakdown: make(map[string]int),
		Outages:   []outageView{},
	}
	//refill:allow maprange — map-to-map copy; JSON object keys are unordered anyway
	for c, n := range rep.Breakdown() {
		v.Breakdown[c.String()] = n
	}
	for _, o := range rep.Outages {
		v.Outages = append(v.Outages, outageView{Start: o.Start, End: o.End})
	}
	return v
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is gone; all we can do is log.
		fmt.Fprintf(os.Stderr, "refill-serve: encode: %v\n", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
