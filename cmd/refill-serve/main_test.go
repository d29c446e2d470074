package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
