package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit throws arbitrary bodies at POST /api/v1/jobs on a server
// whose runner is a stub: submission must never panic, must answer
// only 202, 400, 413 or 503, and every accepted sweep's grid must
// expand.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"scenario": "flash-crowd", "sample_interval": "30s"}`,
		`{"scenario": "churn-storm", "seed": 7}`,
		`{"spec": {"name": "x", "groups": [{"name": "g", "class": "dsl", "nodes": 4}], "workload": {"kind": "gossip"}}}`,
		`{"spec": {"name": "x", "filler_rules": 10, "groups": [{"name": "g", "class": "lan", "nodes": 3}], "workload": {"kind": "swarm"}}}`,
		`{"kind": "sweep", "sweep": {"experiment": "dht", "peers": [4, 8], "seeds": [1, 2], "lookups": 10}}`,
		`{"kind": "sweep", "sweep": {"experiment": "swarm", "peers": [4], "churn": [0, 0.5], "rules": [0, 100], "classifiers": ["linear", "indexed"]}}`,
		`{"kind": "sweep", "sweep": {"experiment": "scenario", "scenarios": ["flash-crowd"], "seeds": [0]}}`,
		`{"kind": "sweep", "sweep": {"experiment": "gossip", "peers": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "classes": ["dsl", "lan", "modem"], "models": ["pipe", "flow"]}}`,
		`{"kind": "sweep"}`,
		`{"kind": "teleport"}`,
		`{}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.run = func(j *Job) { j.finish(&JobResult{Kind: j.kind}, nil) }
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if req.Kind != "sweep" {
			return
		}
		g, err := buildGrid(req.Sweep)
		if err != nil {
			t.Fatalf("accepted sweep has no grid: %v", err)
		}
		if cells, err := g.Cells(); err != nil || len(cells) == 0 {
			t.Fatalf("accepted sweep's grid does not expand: %d cells, %v", len(cells), err)
		}
	})
}
