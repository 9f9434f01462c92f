package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynaq/internal/fleet"
	"dynaq/internal/telemetry/trace"
)

// getTrace fetches /v1/jobs/{id}/trace in the given format ("" for raw).
func getTrace(t *testing.T, ts *httptest.Server, id, format string) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/v1/jobs/" + id + "/trace"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// TestTraceEndToEnd drives one job through the local execution path and
// checks the full trace contract: the caller's X-Dynaq-Trace id is honored,
// the raw JSONL parses and passes structural validation, every lifecycle
// phase appears, engine sim-time spans ride along, and the Chrome export is
// loadable JSON.
func TestTraceEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(testScenario))
	req.Header.Set("X-Dynaq-Trace", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Dynaq-Trace"); got != "trace-e2e-1" {
		t.Fatalf("submit X-Dynaq-Trace = %q, want trace-e2e-1", got)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}

	resp, raw := getTrace(t, ts, st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Dynaq-Trace"); got != "trace-e2e-1" {
		t.Fatalf("trace X-Dynaq-Trace = %q", got)
	}
	spans, err := trace.ParseJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	if err := trace.Validate(spans); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}
	names := make(map[string]int)
	simSpans := 0
	for _, sp := range spans {
		if sp.Trace != "trace-e2e-1" {
			t.Fatalf("span %s carries trace id %q", sp.ID, sp.Trace)
		}
		names[sp.Name]++
		if sp.Domain == trace.DomainSim {
			simSpans++
		}
	}
	for _, want := range []string{"job", "queue-wait", "cell", "scenario-load", "run", "artifact-write", "promote", "sim"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span; have %v", want, names)
		}
	}
	if simSpans == 0 {
		t.Error("trace carries no sim-domain spans")
	}

	resp, chromeData := getTrace(t, ts, st.ID, "chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace status = %d: %s", resp.StatusCode, chromeData)
	}
	var chrome struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeData, &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if chrome.DisplayTimeUnit == "" || len(chrome.TraceEvents) == 0 {
		t.Fatalf("chrome trace is empty: unit=%q events=%d", chrome.DisplayTimeUnit, len(chrome.TraceEvents))
	}

	if resp, body := getTrace(t, ts, st.ID, "bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format status = %d: %s", resp.StatusCode, body)
	}
}

// TestTraceOutsideCache is the cache-purity regression: the trace artifact
// lives beside the job's status, never inside the content-addressed artifact
// directory, and a traced resubmission still cache-hits with bytes identical
// to an untraced fresh run.
func TestTraceOutsideCache(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	cell := done.Cells[0]

	// The op that made the job done wrote its status, trace and queue
	// marker under the same lock hold, so they are there to look at.
	tracePath := filepath.Join(s.jobDir(st.ID), traceFileName)
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("persisted trace: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cell.ArtifactDir, traceFileName)); !os.IsNotExist(err) {
		t.Fatalf("trace leaked into the cached artifact directory: %v", err)
	}
	if strings.Contains(tracePath, string(filepath.Separator)+"cache"+string(filepath.Separator)) {
		t.Fatalf("trace persisted under the cache root: %s", tracePath)
	}

	// Resubmit: must come back entirely from cache even though both runs
	// were traced.
	st2, _ := submit(t, ts, testScenario)
	done2 := waitTerminal(t, ts, st2.ID)
	if done2.State != StateDone || !done2.CacheHit {
		t.Fatalf("resubmit = %s cache_hit=%v, want done from cache", done2.State, done2.CacheHit)
	}
	// A job's state turns done before its trace is persisted; until then
	// the endpoint still serves the first run's file.
	waitFor(t, func() bool {
		_, raw := getTrace(t, ts, st2.ID, "")
		return bytes.Contains(raw, []byte("cell-cache-hit"))
	})

	// Byte-diff the cached artifact against an untraced sequential run: the
	// artifact bytes must be independent of whether tracing was attached.
	fresh := filepath.Join(t.TempDir(), "fresh")
	man := fleet.CellManifest("test-v1", done.ScenarioHash, cell.Scheme, cell.Seed, cell.CacheKey)
	if _, err := fleet.RunCellTo(fresh, []byte(testScenario), cell.Scheme, cell.Seed, man, nil, nil); err != nil {
		t.Fatalf("fresh RunCellTo: %v", err)
	}
	diffDirs(t, cell.ArtifactDir, fresh)
}

// TestTraceIDSanitized: a hostile or malformed X-Dynaq-Trace proposal is
// replaced with a generated id rather than echoed into headers and spans.
func TestTraceIDSanitized(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(testScenario))
	req.Header.Set("X-Dynaq-Trace", "bad id {with} spaces!")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Dynaq-Trace")
	if got == "" || strings.ContainsAny(got, " {}!") {
		t.Fatalf("sanitized trace id = %q", got)
	}
}

// TestTraceRemoteWorkerSpans runs a real fleet worker and checks that its
// span log — produced in a separate process-like tracer under the propagated
// trace id — is absorbed into the coordinator's trace: the worker's execute
// span appears, parented to the coordinator's cell span, with engine
// sim-time spans beneath it, and the merged trace still validates.
func TestTraceRemoteWorkerSpans(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.LeaseTTL = 500 * time.Millisecond })
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: ts.URL,
		ID:          "w-traced",
		Version:     "test-v1",
		WorkDir:     t.TempDir(),
		Poll:        10 * time.Millisecond,
	})
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() { defer close(wdone); w.Run(wctx) }()
	defer func() { wcancel(); <-wdone }()

	waitFor(t, func() bool { return healthzField(t, ts, "workers_active") >= 1 })
	st, _ := submit(t, ts, testScenario)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	if done.Cells[0].Worker != "w-traced" {
		t.Fatalf("cell ran on %q, want w-traced", done.Cells[0].Worker)
	}

	_, raw := getTrace(t, ts, st.ID, "")
	spans, err := trace.ParseJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	if err := trace.Validate(spans); err != nil {
		t.Fatalf("merged trace fails validation: %v", err)
	}
	byID := make(map[string]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var execute *trace.Span
	for i, sp := range spans {
		if sp.Name == "execute" && sp.Service == "worker-w-traced" {
			execute = &spans[i]
		}
	}
	if execute == nil {
		t.Fatalf("no worker execute span absorbed; spans:\n%s", raw)
	}
	parent, ok := byID[execute.Parent]
	if !ok || parent.Name != "cell" || parent.Service != "coordinator" {
		t.Fatalf("execute span parent = %+v, want the coordinator cell span", parent)
	}
	simOnWorker := false
	for _, sp := range spans {
		if sp.Domain == trace.DomainSim && sp.Service == "worker-w-traced" {
			simOnWorker = true
		}
	}
	if !simOnWorker {
		t.Error("worker upload carried no engine sim-time spans")
	}
	for _, name := range []string{"absorb-upload"} {
		found := false
		for _, sp := range spans {
			if sp.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("trace lacks a %q span", name)
		}
	}
}

// TestStalledEventsReaderDoesNotStallJob is the slow-consumer regression: a
// subscriber that never reads its event stream must not block job execution.
// The publisher drops lines for full subscriber buffers instead of stalling,
// and the drop counter surfaces on /metrics.
func TestStalledEventsReaderDoesNotStallJob(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	// Hold the job at the start of execution so the stalled subscriber is
	// attached before any cell event is published.
	held, release := holdJobs(s)

	st, _ := submit(t, ts, testScenario)
	var j *Job
	select {
	case j = <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	// Attach a reader that never consumes the body.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()

	release(j)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done despite stalled reader", done.State, done.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(metrics, []byte("dynaqd_events_dropped_total")) {
		t.Fatal("metrics lack dynaqd_events_dropped_total")
	}
}
