package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	refill "repro"
)

// campaignPieces splits a campaign's logs into one single-node collection
// per node (the fragment a retriever would push) and computes the maximum
// within-packet timestamp spread — the horizon a deployment would derive
// from its clock-skew and packet-lifetime bounds.
func campaignPieces(t *testing.T, logs *refill.Collection) (map[refill.NodeID]*refill.Collection, int64) {
	t.Helper()
	frags := make(map[refill.NodeID]*refill.Collection)
	type span struct{ min, max int64 }
	spans := make(map[refill.PacketID]span)
	for _, n := range logs.Nodes() {
		frag := refill.NewCollection()
		for _, e := range logs.Log(n).Events() {
			frag.Add(e)
			if !e.Type.PacketScoped() {
				continue
			}
			s, ok := spans[e.Packet]
			if !ok {
				s = span{min: e.Time, max: e.Time}
			}
			if e.Time < s.min {
				s.min = e.Time
			}
			if e.Time > s.max {
				s.max = e.Time
			}
			spans[e.Packet] = s
		}
		frags[n] = frag
	}
	horizon := int64(0)
	//refill:allow maprange — max reduction; order-independent
	for _, s := range spans {
		if d := s.max - s.min; d > horizon {
			horizon = d
		}
	}
	return frags, horizon
}

func postLogs(t *testing.T, client *http.Client, url string, frag *refill.Collection, binary bool) {
	t.Helper()
	var buf bytes.Buffer
	ct := "text/plain"
	if binary {
		ct = "application/octet-stream"
		if err := refill.WriteLogsBinary(&buf, frag); err != nil {
			t.Fatal(err)
		}
	} else if err := refill.WriteLogs(&buf, frag); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/append", ct, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("append: %s: %s", resp.Status, body)
	}
}

func TestServeIngestMatchesBatch(t *testing.T) {
	camp, err := refill.RunCampaign(refill.TinyCampaign(11))
	if err != nil {
		t.Fatal(err)
	}
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{},
		refill.WithSink(camp.Sink),
		refill.WithWindow(0, int64(camp.Duration)))
	if err != nil {
		t.Fatal(err)
	}
	want := an.Analyze(camp.Logs)

	frags, horizon := campaignPieces(t, camp.Logs)
	sess, err := an.NewSession(refill.SessionConfig{Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(newHandler(sess, ""))
	srv.EnableHTTP2 = true
	srv.StartTLS()
	defer srv.Close()
	client := srv.Client()

	// Register every log source first: until a node has pushed something
	// the watermark holds at the floor on its account, so the aggressive
	// advances below cannot finalize packets whose rows are still unseen.
	nodes := camp.Logs.Nodes()
	for _, n := range nodes {
		resp, err := client.Post(fmt.Sprintf("%s/v1/register?node=%v", srv.URL, n), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %v: %s", n, resp.Status)
		}
	}

	// Push each node's log as several fragments, round-robin across nodes
	// and alternating codecs, advancing the watermark after every round
	// like a retriever loop would — so packets finalize incrementally.
	const rounds = 4
	finalized := int64(0)
	for r := 0; r < rounds; r++ {
		for i, n := range nodes {
			evs := frags[n].Log(n).Events()
			lo, hi := len(evs)*r/rounds, len(evs)*(r+1)/rounds
			chunk := refill.NewCollection()
			for _, e := range evs[lo:hi] {
				chunk.Add(e)
			}
			postLogs(t, client, srv.URL, chunk, (r+i)%2 == 1)
		}
		resp, err := client.Post(fmt.Sprintf("%s/v1/advance?watermark=%d", srv.URL, camp.Duration), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var adv struct{ Finalized, Watermark int64 }
		if err := json.NewDecoder(resp.Body).Decode(&adv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		finalized += adv.Finalized
	}
	if finalized == 0 {
		t.Error("no packet finalized before drain — the advances never bit")
	}

	// The live snapshot and stats endpoints must serve before drain.
	resp, err := client.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats refill.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Ingested != camp.Logs.TotalEvents() {
		t.Errorf("ingested = %d, want %d", stats.Ingested, camp.Logs.TotalEvents())
	}
	if stats.Drained {
		t.Error("session reports drained before drain")
	}

	resp, err = client.Post(srv.URL+"/v1/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ProtoMajor != 2 {
		t.Errorf("served over HTTP/%d, want HTTP/2", resp.ProtoMajor)
	}
	var got reportView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got.Total != want.Report.Total() || got.Losses != want.Report.LossCount() {
		t.Errorf("drained totals (%d, %d) != batch (%d, %d)",
			got.Total, got.Losses, want.Report.Total(), want.Report.LossCount())
	}
	for c, n := range want.Report.Breakdown() {
		if got.Breakdown[c.String()] != n {
			t.Errorf("cause %v: got %d, want %d", c, got.Breakdown[c.String()], n)
		}
	}

	// The text rendering after drain matches the batch rendering.
	resp, err = client.Get(srv.URL + "/v1/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(text) != refill.RenderBreakdown(want.Report) {
		t.Errorf("text report diverged:\n got: %s\nwant: %s", text, refill.RenderBreakdown(want.Report))
	}

	// Appends after drain are rejected with a conflict.
	var buf bytes.Buffer
	refill.WriteLogs(&buf, frags[camp.Logs.Nodes()[0]])
	resp, err = client.Post(srv.URL+"/v1/append", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("append after drain: %s, want 409", resp.Status)
	}
	resp.Body.Close()
}

// TestServeCheckpointResume crashes the service between two ingest rounds:
// fragments are pushed, a checkpoint is forced via the endpoint, the session
// is abandoned (the "crash"), and a second service resumes from the file.
// Fed the same remaining fragments, the resumed service's drained report —
// JSON and text rendering — must be byte-identical to an uninterrupted run.
func TestServeCheckpointResume(t *testing.T) {
	camp, err := refill.RunCampaign(refill.TinyCampaign(23))
	if err != nil {
		t.Fatal(err)
	}
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{},
		refill.WithSink(camp.Sink),
		refill.WithWindow(0, int64(camp.Duration)))
	if err != nil {
		t.Fatal(err)
	}
	frags, horizon := campaignPieces(t, camp.Logs)
	nodes := camp.Logs.Nodes()
	ckptPath := t.TempDir() + "/session.ckpt"
	sc := refill.SessionConfig{Horizon: horizon}

	// drive pushes rounds [from, to) of every node's log, advancing after
	// each round, then drains and returns the JSON and text reports.
	const rounds = 4
	drive := func(t *testing.T, url string, client *http.Client, from, to int, drain bool) (string, string) {
		t.Helper()
		for r := from; r < to; r++ {
			for _, n := range nodes {
				evs := frags[n].Log(n).Events()
				lo, hi := len(evs)*r/rounds, len(evs)*(r+1)/rounds
				chunk := refill.NewCollection()
				for _, e := range evs[lo:hi] {
					chunk.Add(e)
				}
				postLogs(t, client, url, chunk, r%2 == 1)
			}
			resp, err := client.Post(fmt.Sprintf("%s/v1/advance?watermark=%d", url, camp.Duration), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if !drain {
			return "", ""
		}
		resp, err := client.Post(url+"/v1/drain", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		jsonRep, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp, err = client.Get(url + "/v1/report?format=text")
		if err != nil {
			t.Fatal(err)
		}
		textRep, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(jsonRep), string(textRep)
	}
	register := func(t *testing.T, url string, client *http.Client) {
		t.Helper()
		for _, n := range nodes {
			resp, err := client.Post(fmt.Sprintf("%s/v1/register?node=%v", url, n), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}

	// Uninterrupted reference run.
	ref, err := an.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(newHandler(ref, ""))
	defer refSrv.Close()
	register(t, refSrv.URL, refSrv.Client())
	wantJSON, wantText := drive(t, refSrv.URL, refSrv.Client(), 0, rounds, true)

	// Crashing run: two rounds, checkpoint, abandon the session.
	first, err := an.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(newHandler(first, ckptPath))
	register(t, srv1.URL, srv1.Client())
	drive(t, srv1.URL, srv1.Client(), 0, rounds/2, false)
	resp, err := srv1.Client().Post(srv1.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %s: %s", resp.Status, body)
	}
	srv1.Close() // crash

	// Resume from the file and finish the campaign.
	resumed, err := an.ResumeSession(sc, ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(newHandler(resumed, ckptPath))
	defer srv2.Close()
	gotJSON, gotText := drive(t, srv2.URL, srv2.Client(), rounds/2, rounds, true)

	if gotJSON != wantJSON {
		t.Errorf("resumed JSON report diverged:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if gotText != wantText {
		t.Errorf("resumed text report diverged:\n got: %s\nwant: %s", gotText, wantText)
	}

	// Without -checkpoint-dir the endpoint 404s.
	resp, err = refSrv.Client().Post(refSrv.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("checkpoint without dir: %s, want 404", resp.Status)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{}, refill.WithSink(1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := an.NewSession(refill.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(sess, ""))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/append", "text/plain", strings.NewReader("not a log line\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed append: %s, want 400", resp.Status)
	}

	resp, err = http.Post(srv.URL+"/v1/advance?watermark=soon", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed advance: %s, want 400", resp.Status)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %s", resp.Status)
	}
}

// TestServeThroughPunctuates: ?through=T on register and append punctuates
// the node at T, so an advance reaches T although no row is that late. Node
// 3 is registered through 100 and never logs; node 2 logs one packet at time
// 10 and promises nothing more below 50. Without punctuation the watermark
// would stay at math.MinInt64 on node 3's account and the packet would stay
// pending.
func TestServeThroughPunctuates(t *testing.T) {
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{}, refill.WithSink(1), refill.WithWindow(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := an.NewSession(refill.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(sess, ""))
	defer srv.Close()
	post := func(path string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "text/plain", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	advance := func(want string) {
		t.Helper()
		if code, body := post("/v1/advance?watermark=1000", nil); code != http.StatusOK || body != want+"\n" {
			t.Errorf("advance: %d %s, want %s", code, body, want)
		}
	}

	if code, _ := post("/v1/register?node=2", nil); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	if code, _ := post("/v1/register?node=3&through=100", nil); code != http.StatusOK {
		t.Fatalf("register through: %d", code)
	}
	frag := refill.NewCollection()
	frag.Add(refill.Event{Node: 2, Type: refill.Gen, Sender: 2, Packet: refill.PacketID{Origin: 2, Seq: 1}, Time: 10})
	var buf bytes.Buffer
	if err := refill.WriteLogs(&buf, frag); err != nil {
		t.Fatal(err)
	}
	if code, body := post("/v1/append?through=50", &buf); code != http.StatusOK {
		t.Fatalf("append through: %d %s", code, body)
	}
	advance(`{"finalized":1,"watermark":50}`)
	if code, _ := post("/v1/register?node=2&through=200", nil); code != http.StatusOK {
		t.Fatalf("register through: %d", code)
	}
	advance(`{"finalized":0,"watermark":100}`)

	for _, path := range []string{"/v1/register?node=2&through=soon", "/v1/append?through=soon"} {
		if code, _ := post(path, strings.NewReader("")); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", path, code)
		}
	}
	if st := sess.Stats(); st.Watermark != 100 || st.PendingRows != 0 {
		t.Errorf("stats %+v after bad requests, want watermark 100 and nothing pending", st)
	}
}

// appendTarget is a fresh session mounted on the service handler, for tests
// that call the handler in process through a ResponseRecorder.
type appendTarget struct {
	sess *refill.Session
	h    http.Handler
}

func newAppendTarget(t testing.TB) appendTarget {
	t.Helper()
	an, err := refill.NewAnalyzer(refill.AnalyzerOptions{Parallelism: 1}, refill.WithSink(1), refill.WithWindow(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := an.NewSession(refill.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return appendTarget{sess: sess, h: newHandler(sess, "")}
}

// post serves one POST on path and returns the status and the reply body.
func (a appendTarget) post(path, contentType string, body io.Reader) (int, string) {
	req := httptest.NewRequest(http.MethodPost, path, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	a.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// fragmentOf builds a fragment of the given number of packets, their
// origins taken in turn, each logged as a Gen, a Trans and the sink's Recv
// (three rows), timed from t0.
func fragmentOf(origins []refill.NodeID, packets int, t0 int64) *refill.Collection {
	c := refill.NewCollection()
	for i := 0; i < packets; i++ {
		o := origins[i%len(origins)]
		pkt := refill.PacketID{Origin: o, Seq: uint32(t0) + uint32(i)}
		tick := t0 + int64(i)*3
		c.Add(refill.Event{Node: o, Type: refill.Gen, Sender: o, Packet: pkt, Time: tick})
		c.Add(refill.Event{Node: o, Type: refill.Trans, Sender: o, Receiver: 1, Packet: pkt, Time: tick + 1})
		c.Add(refill.Event{Node: 1, Type: refill.Recv, Sender: o, Receiver: 1, Packet: pkt, Time: tick + 2, Info: "rssi=-71"})
	}
	return c
}

func encodeBinary(t testing.TB, c *refill.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := refill.WriteLogsBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeText(t testing.TB, c *refill.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := refill.WriteLogs(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const binaryType = "application/octet-stream"

// TestServeAppendAllocations bounds what one binary append allocates: the
// decoded body and what the session keeps, with the decoder's 64 KiB read
// buffer coming from a pool. A fresh buffer per request alone would exceed
// the bound.
func TestServeAppendAllocations(t *testing.T) {
	a := newAppendTarget(t)
	body := encodeBinary(t, fragmentOf([]refill.NodeID{2, 3, 4}, 70, 0)) // ~6.4 KB, the size a retriever pushes
	post := func() {
		if code, reply := a.post("/v1/append", binaryType, bytes.NewReader(body)); code != http.StatusOK {
			t.Fatalf("append: %d %s", code, reply)
		}
	}
	for i := 0; i < 8; i++ {
		post()
	}
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	// The decoded body and the rows the pending store keeps come to about
	// 48 KB; a fresh read buffer per request would add 64 KiB to that.
	const bound = 64 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / requests; per > bound {
		t.Errorf("a %d-byte binary append allocates %d bytes, want at most %d", len(body), per, bound)
	}
}

// TestServeTextAppendSizedByLength: a text body that declares its length is
// decoded with a line buffer and node logs sized by it, so a two-line body
// costs a few KB, not a fresh 64 KiB buffer and 256 rows a node. A chunked
// body, of unknown length, decodes to the same collection.
func TestServeTextAppendSizedByLength(t *testing.T) {
	const body = "2 gen 2 - 2:1 10\n3 recv 2 3 2:1 12\n"
	request := func(length int64) *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/v1/append", strings.NewReader(body))
		req.ContentLength = length
		return req
	}
	const runs = 50
	reqs, recs := make([]*http.Request, runs), make([]*httptest.ResponseRecorder, runs)
	for i := range reqs {
		reqs[i], recs[i] = request(int64(len(body))), httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		if _, err := readAppendBody(recs[i], reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const bound = 8 << 10
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a %d-byte text body decodes in %d bytes (%d allocations)", len(body), per, (after.Mallocs-before.Mallocs)/runs)
	if per > bound {
		t.Errorf("a %d-byte text body decodes in %d bytes, want at most %d", len(body), per, bound)
	}
	sized, err := readAppendBody(httptest.NewRecorder(), request(int64(len(body))))
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := readAppendBody(httptest.NewRecorder(), request(-1))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := refill.WriteLogs(&a, sized); err != nil {
		t.Fatal(err)
	}
	if err := refill.WriteLogs(&b, chunked); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || sized.TotalEvents() != 2 {
		t.Errorf("sized body decoded to\n%s\nchunked body to\n%s", a.String(), b.String())
	}
}

// TestServeAppendTruncatedAfterLong: a truncated binary body served right
// after a valid one longer than the read buffer is a 400 and changes nothing
// in the session, so a recycled reader carries nothing of the body before.
func TestServeAppendTruncatedAfterLong(t *testing.T) {
	a := newAppendTarget(t)
	long := encodeBinary(t, fragmentOf([]refill.NodeID{2, 3}, 2000, 0))
	if len(long) <= 64<<10 {
		t.Fatalf("long body is %d bytes; it must overrun the 64 KiB read buffer", len(long))
	}
	if code, reply := a.post("/v1/append", binaryType, bytes.NewReader(long)); code != http.StatusOK || reply != "{\"ingested\":6000,\"nodes\":3}\n" {
		t.Fatalf("long append: %d %s", code, reply)
	}
	before := a.sess.Stats()
	short := encodeBinary(t, fragmentOf([]refill.NodeID{5}, 10, 10000))
	for _, cut := range []int{3, 5 + 6, len(short) - 4} { // header, node header, last record
		if code, reply := a.post("/v1/append", binaryType, bytes.NewReader(short[:cut])); code != http.StatusBadRequest {
			t.Errorf("body cut at %d of %d bytes: %d %s, want 400", cut, len(short), code, reply)
		}
		if st := a.sess.Stats(); st != before {
			t.Errorf("body cut at %d: stats %+v, want %+v", cut, st, before)
		}
	}
}

// TestServeAppendReplies pins the append reply bytes for both codecs, and
// that a node whose binary header announces zero rows still counts in
// "nodes" and is still punctuated by ?through=.
func TestServeAppendReplies(t *testing.T) {
	a := newAppendTarget(t)
	frag := fragmentOf([]refill.NodeID{2}, 2, 0)
	const want = "{\"ingested\":6,\"nodes\":2}\n"
	if code, reply := a.post("/v1/append", "text/plain", bytes.NewReader(encodeText(t, frag))); code != http.StatusOK || reply != want {
		t.Errorf("text append: %d %q, want 200 %q", code, reply, want)
	}
	if code, reply := a.post("/v1/append", binaryType, bytes.NewReader(encodeBinary(t, frag))); code != http.StatusOK || reply != want {
		t.Errorf("binary append: %d %q, want 200 %q", code, reply, want)
	}

	b := newAppendTarget(t)
	empty := []byte("RFBL\x01\x07\x00\x00\x00\x00\x00\x00\x00") // node 7, zero rows
	if code, reply := b.post("/v1/append?through=100", binaryType, bytes.NewReader(empty)); code != http.StatusOK || reply != "{\"ingested\":0,\"nodes\":1}\n" {
		t.Errorf("zero-row append: %d %q", code, reply)
	}
	if st := b.sess.Stats(); st.Nodes != 1 || st.Ingested != 0 {
		t.Errorf("stats after a zero-row append: %+v, want one node and nothing ingested", st)
	}
	if code, reply := b.post("/v1/advance?watermark=1000", "", nil); code != http.StatusOK || reply != "{\"finalized\":0,\"watermark\":100}\n" {
		t.Errorf("advance past a zero-row node punctuated at 100: %d %q", code, reply)
	}
}

// repeatReader yields n bytes of unit, repeated.
type repeatReader struct {
	unit []byte
	off  int
	n    int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.n)]
	for n := 0; n < len(p); {
		k := copy(p[n:], r.unit[r.off:])
		n += k
		r.off = (r.off + k) % len(r.unit)
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestServeAppendBodyCap: a body of exactly maxAppendBody bytes is appended,
// and one byte more is a 413 in either codec that leaves the session as it
// was. The bodies open with a valid row and are padded with what decodes to
// nothing — comment lines, zero-row node headers — so only the cap can
// refuse them.
func TestServeAppendBodyCap(t *testing.T) {
	row := encodeText(t, fragmentOf([]refill.NodeID{2}, 1, 0))
	comment := []byte("#" + strings.Repeat("x", 62) + "\n")
	binRow := encodeBinary(t, fragmentOf([]refill.NodeID{2}, 1, 0))
	zeroNode := []byte("\x02\x00\x00\x00\x00\x00\x00\x00")
	cases := []struct {
		name, contentType string
		size              int64
		code              int
		prefix, pad       []byte
	}{
		{"text-at-cap", "text/plain", maxAppendBody, http.StatusOK, row, comment},
		{"text-over-cap", "text/plain", maxAppendBody + 1, http.StatusRequestEntityTooLarge, row, comment},
		{"binary-over-cap", binaryType, maxAppendBody + 1, http.StatusRequestEntityTooLarge, binRow, zeroNode},
	}
	for _, c := range cases {
		a := newAppendTarget(t)
		before := a.sess.Stats()
		body := io.MultiReader(bytes.NewReader(c.prefix), &repeatReader{unit: c.pad, n: c.size - int64(len(c.prefix))})
		code, reply := a.post("/v1/append", c.contentType, body)
		if code != c.code {
			t.Errorf("%s: %d %s, want %d", c.name, code, reply, c.code)
		}
		if st := a.sess.Stats(); c.code != http.StatusOK && st != before {
			t.Errorf("%s: stats %+v after a refused body, want %+v", c.name, st, before)
		}
	}
}

// hugeNodeBody is one gen record, in the text codec, from node 3,000,000,000:
// a valid NodeID that both codecs accept.
func hugeNodeBody(t testing.TB) []byte {
	const n refill.NodeID = 3_000_000_000
	c := refill.NewCollection()
	c.Add(refill.Event{Node: n, Type: refill.Gen, Sender: n, Packet: refill.PacketID{Origin: n, Seq: 1}, Time: 5})
	return encodeText(t, c)
}

// opsInterleaved is fragmentOf's packets plus a server log whose server-down
// and server-up rows come first, between deliveries and last: the session
// cuts every fragment at its operational rows.
func opsInterleaved() *refill.Collection {
	c := fragmentOf([]refill.NodeID{2, 3}, 4, 0)
	srv := func(typ refill.EventType, seq uint32, at int64) {
		e := refill.Event{Node: refill.Server, Type: typ, Time: at}
		if typ == refill.ServerRecv {
			e.Sender, e.Receiver, e.Packet = 1, refill.Server, refill.PacketID{Origin: refill.NodeID(2 + seq%2), Seq: seq}
		}
		c.Add(e)
	}
	srv(refill.ServerDown, 0, 1)
	srv(refill.ServerRecv, 0, 3)
	srv(refill.ServerUp, 0, 4)
	srv(refill.ServerRecv, 1, 6)
	srv(refill.ServerRecv, 2, 9)
	srv(refill.ServerDown, 0, 10)
	return c
}

// TestServeDrainHugeNodeID appends hugeNodeBody and drains: the drain's
// aggregate must hold the one outcome in memory bounded by the positions
// seen, not by the largest node ID, so one request cannot exhaust the daemon.
func TestServeDrainHugeNodeID(t *testing.T) {
	a := newAppendTarget(t)
	if code, reply := a.post("/v1/append", "text/plain", bytes.NewReader(hugeNodeBody(t))); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, reply)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, reply := a.post("/v1/drain", "", nil)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, reply)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("draining one record allocated %d bytes", grew)
	}
	var got struct{ Total, Losses int }
	if err := json.Unmarshal([]byte(reply), &got); err != nil || got.Total != 1 || got.Losses != 1 {
		t.Errorf("drain reply %q (%v), want one lost packet", reply, err)
	}
}

// FuzzServeAppend posts arbitrary bodies in either codec. The handler must
// never panic; a 2xx reply must report exactly the rows the session took in,
// and any other reply must leave the session as it was.
func FuzzServeAppend(f *testing.F) {
	valid := encodeBinary(f, fragmentOf([]refill.NodeID{2, 3}, 4, 0))
	f.Add(valid, true)
	f.Add(valid[:len(valid)-3], true)
	f.Add([]byte("RFBX\x01\x02\x00\x00\x00\x01\x00\x00\x00"), true)
	f.Add(encodeText(f, fragmentOf([]refill.NodeID{2}, 1, 0)), false)
	f.Add(hugeNodeBody(f), false)
	f.Add(encodeBinary(f, opsInterleaved()), true)
	f.Add(encodeText(f, opsInterleaved()), false)
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		a := newAppendTarget(t)
		ct := "text/plain"
		if binary {
			ct = binaryType
		}
		before := a.sess.Stats()
		code, reply := a.post("/v1/append", ct, bytes.NewReader(body))
		after := a.sess.Stats()
		if code/100 != 2 {
			if after != before {
				t.Fatalf("%d reply changed the session: %+v -> %+v", code, before, after)
			}
			return
		}
		var got struct{ Ingested, Nodes int }
		if err := json.Unmarshal([]byte(reply), &got); err != nil {
			t.Fatalf("%d reply %q: %v", code, reply, err)
		}
		if after.Ingested-before.Ingested != got.Ingested {
			t.Fatalf("reply says %d ingested, the session took %d", got.Ingested, after.Ingested-before.Ingested)
		}
	})
}
