package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, base string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// sseEvent is one decoded frame of an /events stream.
type sseEvent struct {
	Type string
	Data map[string]any
}

// streamEvents reads the SSE stream until the job reaches a terminal
// frame ("result" or a failed "state") or the deadline passes.
func streamEvents(t *testing.T, url string, deadline time.Duration) []sseEvent {
	t.Helper()
	client := &http.Client{Timeout: deadline}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = sseEvent{Type: strings.TrimPrefix(line, "event: ")}
		case strings.HasPrefix(line, "data: "):
			var frame struct {
				Type string         `json:"type"`
				Data map[string]any `json:"data"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
				t.Fatalf("bad SSE data line: %v", err)
			}
			cur.Data = frame.Data
		case line == "":
			if cur.Type == "" {
				continue
			}
			evs = append(evs, cur)
			if cur.Type == "result" {
				return evs
			}
			if cur.Type == "state" {
				if st, _ := cur.Data["state"].(string); st == string(JobFailed) {
					return evs
				}
			}
			cur = sseEvent{}
		}
	}
	return evs
}

// TestServeScenarioEndToEnd is the serve-mode smoke test: submit the
// flash-crowd scenario over HTTP, stream its events to completion,
// and check the result, CSV and /metrics views.
func TestServeScenarioEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, sub := postJob(t, ts.URL, `{"scenario": "flash-crowd", "sample_interval": "30s"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", sub)
	}

	evs := streamEvents(t, ts.URL+"/api/v1/jobs/"+id+"/events", 120*time.Second)
	var samples, results int
	var lastSample map[string]any
	for _, ev := range evs {
		switch ev.Type {
		case "sample":
			samples++
			lastSample = ev.Data
		case "result":
			results++
		}
	}
	if results != 1 {
		t.Fatalf("stream ended without a result frame (%d events)", len(evs))
	}
	if samples == 0 {
		t.Fatal("no sample frames streamed")
	}
	// A sample carries the virtual timestamp and the live registry state.
	if v, _ := lastSample["virtual_s"].(float64); v <= 0 {
		t.Errorf("sample virtual_s = %v", lastSample["virtual_s"])
	}
	if lastSample["metrics"] == nil {
		t.Error("sample has no metrics snapshot")
	}

	// Inspect view.
	info := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if info["state"] != string(JobDone) {
		t.Fatalf("job state = %v", info["state"])
	}
	list := getJSON(t, ts.URL+"/api/v1/jobs", http.StatusOK)
	if jobs, _ := list["jobs"].([]any); len(jobs) != 1 {
		t.Fatalf("list = %v", list)
	}

	// Result: the scenario ran and moved traffic.
	res := getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusOK)
	if res["scenario"] != "flash-crowd" {
		t.Errorf("result scenario = %v", res["scenario"])
	}
	if done, _ := res["done"].(float64); done <= 0 {
		t.Errorf("result done = %v", res["done"])
	}
	net, _ := res["net"].(map[string]any)
	if net == nil {
		t.Fatal("result has no net stats")
	}
	if sent, _ := net["MessagesSent"].(float64); sent <= 0 {
		t.Errorf("net.MessagesSent = %v", net["MessagesSent"])
	}

	// CSV export has a header plus at least one row.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	_, _ = csv.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(strings.Split(strings.TrimSpace(csv.String()), "\n")) < 2 {
		t.Errorf("csv = %d:\n%s", resp.StatusCode, csv.String())
	}

	// /metrics: server counters plus the job's final snapshot, tagged
	// with the job id, in Prometheus text format.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	text := prom.String()
	for _, want := range []string{
		"p2plab_server_jobs_submitted_total 1",
		"p2plab_server_jobs_completed_total 1",
		"# TYPE p2plab_net_messages_sent_total counter",
		`p2plab_net_messages_sent_total{job="` + id + `"} `,
		`p2plab_sim_events_total{job="` + id + `"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, text)
		}
	}

	// Health reflects the finished job.
	health := getJSON(t, ts.URL+"/health", http.StatusOK)
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	jobs, _ := health["jobs"].(map[string]any)
	if done, _ := jobs["done"].(float64); done != 1 {
		t.Errorf("health jobs = %v", jobs)
	}
}

// TestServeBoundedQueue fills the queue with jobs held by a blocking
// runner and checks that overflow submissions get 503 while every
// admitted job still runs to completion after release.
func TestServeBoundedQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	firstRunning := make(chan struct{})
	var firstOnce sync.Once
	var ran sync.WaitGroup
	s.run = func(j *Job) {
		firstOnce.Do(func() { close(firstRunning) })
		<-release
		j.finish(&JobResult{Kind: j.kind}, nil)
		ran.Done()
	}

	// Worker capacity 1 + queue depth 2 = 3 admitted jobs; the 4th and
	// 5th submissions must bounce. The first submission may sit in the
	// queue briefly before the worker picks it up, so allow one retry
	// round for the expected 202 count.
	body := `{"scenario": "flash-crowd"}`
	accepted, rejected := 0, 0
	for i := 0; i < 5; i++ {
		code, out := postJob(t, ts.URL, body)
		switch code {
		case http.StatusAccepted:
			accepted++
			ran.Add(1)
		case http.StatusServiceUnavailable:
			if msg, _ := out["error"].(string); !strings.Contains(msg, "queue full") {
				t.Errorf("503 body = %v", out)
			}
			rejected++
		default:
			t.Fatalf("submit %d = %d", i, code)
		}
		if i == 0 {
			// Wait until the worker has dequeued the first job (it
			// parks in the blocking runner) so the admission
			// arithmetic below is deterministic.
			<-firstRunning
		}
	}
	if accepted != 3 || rejected != 2 {
		t.Fatalf("accepted %d rejected %d, want 3/2", accepted, rejected)
	}

	// Queue-full metrics and health agree.
	prom := getText(t, ts.URL+"/metrics")
	if !strings.Contains(prom, "p2plab_server_jobs_rejected_total 2") {
		t.Errorf("rejected counter missing:\n%s", prom)
	}

	close(release)
	// The runner calls finish before ran.Done, so after Wait returns
	// every admitted job's state is JobDone — no polling needed.
	ran.Wait()
	h := getJSON(t, ts.URL+"/health", http.StatusOK)
	jobs2, _ := h["jobs"].(map[string]any)
	if done, _ := jobs2["done"].(float64); done != 3 {
		t.Fatalf("health done = %v, want 3", done)
	}
}

// TestServeSweepJob runs a tiny sweep over HTTP and checks per-cell
// progress frames and the aggregate result.
func TestServeSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sub := postJob(t, ts.URL, `{
		"kind": "sweep",
		"sweep": {
			"experiment": "sched",
			"peers": [4, 8],
			"seeds": [1, 2],
			"workers": 2,
			"horizon": "10m"
		}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	id := sub["id"].(string)

	evs := streamEvents(t, ts.URL+"/api/v1/jobs/"+id+"/events", 120*time.Second)
	progress := 0
	for _, ev := range evs {
		if ev.Type == "progress" {
			progress++
			if total, _ := ev.Data["total"].(float64); total != 4 {
				t.Errorf("progress total = %v", ev.Data["total"])
			}
		}
	}
	if progress != 4 {
		t.Fatalf("got %d progress frames, want 4", progress)
	}

	res := getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusOK)
	if cells, _ := res["cells"].([]any); len(cells) != 4 {
		t.Fatalf("result cells = %v", res["cells"])
	}
	if failed, _ := res["failed"].(float64); failed != 0 {
		t.Fatalf("failed cells: %v", res["failed"])
	}
}

// TestServeValidation covers the submission-time error paths.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},                               // neither scenario nor spec
		{`{"scenario": "no-such-scenario"}`, http.StatusBadRequest}, // unknown corpus name
		{`{"kind": "sweep"}`, http.StatusBadRequest},                // sweep without grid
		{`{"kind": "sweep", "sweep": {"experiment": "bogus"}}`, http.StatusBadRequest},
		{`{"kind": "teleport"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _ := postJob(t, ts.URL, c.body); code != c.want {
			t.Errorf("submit %q = %d, want %d", c.body, code, c.want)
		}
	}

	// A body past the size cap is refused before it is decoded.
	big := `{"scenario": "flash-crowd", "pad": "` + strings.Repeat("x", maxRequestBytes) + `"}`
	if code, _ := postJob(t, ts.URL, big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
	// A grid whose axes multiply to about 10^12 cells is a 400.
	var ints, fracs []string
	for i := 1; i <= 1000; i++ {
		ints = append(ints, fmt.Sprint(i))
		fracs = append(fracs, fmt.Sprint(float64(i-1)/1000))
	}
	axis := strings.Join(ints, ",")
	grid := `{"kind": "sweep", "sweep": {"experiment": "swarm", "peers": [` + axis + `], "rules": [` + axis +
		`], "seeds": [` + axis + `], "churn": [` + strings.Join(fracs, ",") + `]}}`
	if code, body := postJob(t, ts.URL, grid); code != http.StatusBadRequest {
		t.Errorf("10^12-cell grid = %d (%v), want %d", code, body, http.StatusBadRequest)
	}
	getJSON(t, ts.URL+"/api/v1/jobs/nope", http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/jobs/nope/result", http.StatusNotFound)
}

// TestServeResultConflict checks that /result is a 409 until the job
// finishes.
func TestServeResultConflict(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	jobCh := make(chan *Job, 1)
	s.run = func(j *Job) {
		jobCh <- j
		<-release
		j.finish(&JobResult{Kind: j.kind}, nil)
	}
	code, sub := postJob(t, ts.URL, `{"scenario": "flash-crowd"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := sub["id"].(string)
	getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusConflict)
	j := <-jobCh
	close(release)
	<-j.done // finish closes it; no state polling
	h := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if h["state"] != string(JobDone) {
		t.Fatalf("state = %v, want done", h["state"])
	}
	getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusOK)
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	return b.String()
}
