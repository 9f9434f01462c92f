package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynaq/internal/server"
)

// cell is one short static run, so the local executor finishes a job of it
// in well under a second.
const cell = `{"kind":"static","scheme":"BestEffort","rate_gbps":1,"buffer_bytes":30000,"queues":2,"rtt_us":100,"duration_s":0.05,"sample_ms":10,"seed":1,"specs":[{"class":0,"flows":2}]}`

// post sends body to path on ts, as tenant when it is not empty, and decodes
// a JSON reply into out when out is not nil.
func post(t *testing.T, ts *httptest.Server, path, tenant, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Dynaq-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding the reply: %v", path, err)
		}
	}
	return resp.StatusCode
}

// eventually renders frames until every want is in one, and returns it.
func eventually(t *testing.T, tp *top, want ...string) string {
	t.Helper()
	var frame string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		var err error
		if frame, err = tp.render(); err != nil {
			t.Fatalf("render: %v", err)
		}
		missing := false
		for _, w := range want {
			missing = missing || !strings.Contains(frame, w)
		}
		if !missing {
			return frame
		}
	}
	t.Fatalf("no frame within 20s holds all of %q; the last:\n%s", want, frame)
	return ""
}

// TestRenderShowsEveryPane renders frames from a real coordinator that has
// run one job of the default tenant to completion and holds a second
// tenant's job running, one cell leased to a worker: the frame must show
// the queue line, that worker's lease, both tenants, the latency
// histograms and the running job's event stream.
func TestRenderShowsEveryPane(t *testing.T) {
	s, err := server.New(server.Config{DataDir: t.TempDir(), Concurrency: 1, Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	tp := &top{base: ts.URL, client: ts.Client()}
	defer func() {
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if tp.cancel != nil {
			tp.cancel()
		}
	}()

	// The default tenant's job runs on the local executor.
	var done server.JobStatus
	if code := post(t, ts, "/v1/jobs", "", cell, &done); code != http.StatusAccepted {
		t.Fatalf("submitting the first job: status %d", code)
	}
	eventually(t, tp, "1 done")

	// A worker registers, so the second tenant's job waits for it, and then
	// leases its cell.
	if code := post(t, ts, "/v1/leases", "", `{"worker":"w-1"}`, nil); code != http.StatusNoContent {
		t.Fatalf("idle lease: status %d, want 204", code)
	}
	var running server.JobStatus
	if code := post(t, ts, "/v1/jobs", "beta", strings.Replace(cell, `"seed":1`, `"seed":2`, 1), &running); code != http.StatusAccepted {
		t.Fatalf("submitting beta's job: status %d", code)
	}
	var grant struct {
		JobID string `json:"job_id"`
	}
	if code := post(t, ts, "/v1/leases", "", `{"worker":"w-1"}`, &grant); code != http.StatusOK || grant.JobID != running.ID {
		t.Fatalf("lease: status %d for job %q, want 200 for %q", code, grant.JobID, running.ID)
	}

	frame := eventually(t, tp, "events — job "+running.ID+"\n    ")
	for _, pane := range []struct{ name, want string }{
		{"queue", "  queue 0     running 1"},
		{"jobs", "jobs: 2 submitted, 1 done"},
		{"workers", "  workers (live leases)\n    w-1                    1 █\n"},
		{"tenants", "\n  tenants (queued jobs / queued cells / in-flight cells, queue-wait p99)\n"},
		{"tenant beta", "    beta                 jobs 0    cells 0     inflight 1"},
		{"tenant default", "    default              jobs 0    cells 0     inflight 0"},
		{"latency", "\n  latency (ms, from histogram buckets: value is the bucket upper bound)\n"},
		{"queue wait", "    queue wait       p50≤"},
		{"job end-to-end", "    job end-to-end   p50≤"},
		{"events", "\n  events — job " + running.ID + "\n    "},
	} {
		if !strings.Contains(frame, pane.want) {
			t.Errorf("%s pane: no %q in the frame:\n%s", pane.name, pane.want, frame)
		}
	}
}
