package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// replayStats is what one replay of a schedule against a live refill-serve
// measured. Latencies are in milliseconds, one entry per request.
type replayStats struct {
	wall               time.Duration // first register sent -> drain reply in hand
	appendMs           []float64
	appendUnderAdvance []float64 // the appends issued while an advance was in flight
	advanceMs          []float64
	reportMs           []float64
	drain              time.Duration
	requests, failed   int
	bodyBytes          int64
	drained            []byte // the /v1/drain reply
}

// conn is one keep-alive HTTP/1.1 connection and the requests it carried.
type conn struct {
	client           *http.Client
	base             string
	requests, failed int
	bodyBytes        int64
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// do sends one request and waits for the whole reply — the caller's next
// request on this connection cannot start earlier. Any transport error or
// non-2xx status counts as a failed operation.
func (c *conn) do(method, path, ctype string, body []byte) ([]byte, time.Duration) {
	c.requests++
	c.bodyBytes += int64(len(body))
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.failed++
		return nil, 0
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.failed++
		return nil, time.Since(start)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil || resp.StatusCode/100 != 2 {
		c.failed++
	}
	return reply, d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay streams the schedule to the server at base in a closed loop over
// two connections. The retriever connection registers every node, then posts
// the fragments round by round in per-node log order, each after the reply to
// the one before. The controller connection, once per completed round, posts
// /v1/advance and then reads /v1/report, while the retriever is already
// appending the next round. When both are done the retriever posts /v1/drain.
func replay(base string, s *schedule) *replayStats {
	st := &replayStats{}
	retriever, controller := newConn(base), newConn(base)
	var advancing atomic.Bool
	// One slot per round: the retriever never waits for the controller.
	done := make(chan int, len(s.rounds))
	finished := make(chan struct{})

	start := time.Now()
	go func() {
		defer close(finished)
		for r := range done {
			advancing.Store(true)
			_, d := controller.do("POST", fmt.Sprintf("/v1/advance?watermark=%d", s.cuts[r]), "", nil)
			advancing.Store(false)
			st.advanceMs = append(st.advanceMs, ms(d))
			_, d = controller.do("GET", "/v1/report", "", nil)
			st.reportMs = append(st.reportMs, ms(d))
		}
	}()
	for _, n := range s.nodes {
		retriever.do("POST", "/v1/register?node="+n.String(), "", nil)
	}
	for r, round := range s.rounds {
		for _, f := range round {
			under := advancing.Load()
			_, d := retriever.do("POST", "/v1/append", "application/octet-stream", f.body)
			st.appendMs = append(st.appendMs, ms(d))
			if under {
				st.appendUnderAdvance = append(st.appendUnderAdvance, ms(d))
			}
		}
		done <- r
	}
	close(done)
	<-finished
	st.drained, st.drain = retriever.do("POST", "/v1/drain", "", nil)
	st.wall = time.Since(start)

	for _, c := range []*conn{retriever, controller} {
		st.requests += c.requests
		st.failed += c.failed
		st.bodyBytes += c.bodyBytes
		c.client.CloseIdleConnections()
	}
	return st
}
