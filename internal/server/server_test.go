package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaq/internal/coord"
	"dynaq/internal/fleet"
	"dynaq/internal/telemetry"
)

// testScenario is a deliberately tiny static run (50 simulated ms, 2 flows)
// so one cell completes in well under a second of wall time.
const testScenario = `{"kind":"static","scheme":"BestEffort","rate_gbps":1,"buffer_bytes":30000,"queues":2,"rtt_us":100,"duration_s":0.05,"sample_ms":10,"seed":1,"specs":[{"class":0,"flows":2}]}`

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		DataDir:     t.TempDir(),
		QueueDepth:  8,
		Concurrency: 1,
		Version:     "test-v1",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding submit response: %v\n%s", err, data)
		}
	}
	return st, resp
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding status: %v\n%s", err, data)
		}
		if terminal(st.State) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// TestEndToEnd is the service acceptance path: submit → fresh run → artifact
// on disk; resubmit → cache hit, same artifact directory; and the cached
// artifact is byte-identical to a fresh sequential run of the same cell.
func TestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, resp := submit(t, ts, testScenario)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, st.ID)
	}
	if len(st.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(st.Cells))
	}

	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	if done.CacheHit {
		t.Fatal("first run reported cache_hit")
	}
	cell := done.Cells[0]
	if cell.CacheHit || cell.State != StateDone {
		t.Fatalf("cell = %+v, want fresh done", cell)
	}
	for _, f := range []string{telemetry.ManifestFile, telemetry.EventsFile, telemetry.MetricsFile} {
		if _, err := os.Stat(filepath.Join(cell.ArtifactDir, f)); err != nil {
			t.Errorf("artifact %s: %v", f, err)
		}
	}

	// Resubmit: same job id, every cell served from cache, same artifact dir.
	st2, _ := submit(t, ts, testScenario)
	if st2.ID != st.ID {
		t.Fatalf("resubmit id = %s, want %s", st2.ID, st.ID)
	}
	done2 := waitTerminal(t, ts, st2.ID)
	if done2.State != StateDone || !done2.CacheHit {
		t.Fatalf("resubmit = %s cache_hit=%v, want done from cache", done2.State, done2.CacheHit)
	}
	if !done2.Cells[0].CacheHit || done2.Cells[0].ArtifactDir != cell.ArtifactDir {
		t.Fatalf("resubmit cell = %+v, want cache hit at %s", done2.Cells[0], cell.ArtifactDir)
	}

	// Byte-diff: a fresh sequential run of the same cell through the shared
	// execution path must produce exactly the cached bytes.
	fresh := filepath.Join(t.TempDir(), "fresh")
	man := fleet.CellManifest("test-v1", done.ScenarioHash, cell.Scheme, cell.Seed, cell.CacheKey)
	if _, err := fleet.RunCellTo(fresh, []byte(testScenario), cell.Scheme, cell.Seed, man, nil, nil); err != nil {
		t.Fatalf("fresh RunCellTo: %v", err)
	}
	diffDirs(t, cell.ArtifactDir, fresh)
}

// diffDirs asserts two artifact directories hold identical file sets with
// identical bytes.
func diffDirs(t *testing.T, a, b string) {
	t.Helper()
	names := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir %s: %v", dir, err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		sort.Strings(out)
		return out
	}
	an, bn := names(a), names(b)
	if fmt.Sprint(an) != fmt.Sprint(bn) {
		t.Fatalf("file sets differ: %v vs %v", an, bn)
	}
	for _, name := range an {
		ab, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s differs between cached and fresh run (%d vs %d bytes)", name, len(ab), len(bb))
		}
	}
}

// shutdownCtx bounds a test Shutdown so a drain bug fails the test instead
// of hanging it.
func shutdownCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestSweepExpansion checks the wrapper form: schemes × seeds become
// deduplicated cells and the job id is a pure function of the expansion.
func TestSweepExpansion(t *testing.T) {
	body := `{"scenario":` + testScenario + `,"schemes":["BestEffort","DynaQ","BestEffort"],"seeds":[1,2]}`
	j, err := buildJob(parseRequest([]byte(body)), "v1")
	if err != nil {
		t.Fatal(err)
	}
	// BestEffort repeated: 2 schemes × 2 seeds = 4 unique cells.
	if len(j.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(j.Cells))
	}
	j2, err := buildJob(parseRequest([]byte(body)), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != j2.ID {
		t.Fatalf("job id not stable: %s vs %s", j.ID, j2.ID)
	}
	// The id survives version changes (handles outlive upgrades)...
	j3, err := buildJob(parseRequest([]byte(body)), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != j.ID {
		t.Fatalf("job id changed with version: %s vs %s", j3.ID, j.ID)
	}
	// ...while the cells' cache keys do not (upgrades re-run).
	if j3.Cells[0].Key == j.Cells[0].Key {
		t.Fatal("cell cache key did not change with version")
	}
}

// TestCacheKeyVersioned pins the satellite requirement: the cache key moves
// with the build version and with every other identity input.
func TestCacheKeyVersioned(t *testing.T) {
	base := CacheKey("v1", "hash", "DynaQ", "packet", 1)
	for name, other := range map[string]string{
		"version": CacheKey("v2", "hash", "DynaQ", "packet", 1),
		"hash":    CacheKey("v1", "hash2", "DynaQ", "packet", 1),
		"scheme":  CacheKey("v1", "hash", "BestEffort", "packet", 1),
		"engine":  CacheKey("v1", "hash", "DynaQ", "flow", 1),
		"seed":    CacheKey("v1", "hash", "DynaQ", "packet", 2),
	} {
		if other == base {
			t.Errorf("cache key ignores %s", name)
		}
	}
	if again := CacheKey("v1", "hash", "DynaQ", "packet", 1); again != base {
		t.Error("cache key not deterministic")
	}
	if CacheKey("v1", "hash", "DynaQ", "", 1) != base {
		t.Error("empty engine must alias the packet default")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Invalid scenario: typed field surfaces in the 400 body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"static","scheme":"BestEffort","rate_gbps":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, data)
	}
	var eb struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Field != "rate_gbps" {
		t.Fatalf("field = %q, want rate_gbps\n%s", eb.Field, data)
	}

	// Unknown scheme or scheduler names — in the document or in the sweep
	// wrapper, under any engine — are a 400, not a cell that dead-letters
	// on a worker (or, under the flow engine, "succeeds"). So is a scheme
	// the document's engine cannot run, wherever the sweep names it.
	const flowDoc = `{"kind":"fct","scheme":"DynaQ","engine":"flow","topo":"fattree","k":4,"rate_gbps":10,` +
		`"buffer_bytes":192000,"queues":4,"rtt_us":40,"load":0.5,"flows":10,"workloads":["websearch"]}`
	hybridDoc := strings.Replace(flowDoc, `"engine":"flow"`, `"engine":"hybrid"`, 1)
	for _, tc := range []struct{ body, field string }{
		{strings.Replace(testScenario, "BestEffort", "DynQ", 1), "scheme"},
		{strings.Replace(testScenario, `"kind"`, `"sched":"fifo","kind"`, 1), "sched"},
		{strings.Replace(testScenario, `"queues":2`, `"queues":65`, 1), "queues"},
		{strings.Replace(testScenario, `"queues":2`, `"mtu":20,"queues":2`, 1), "mtu"},
		{`{"scenario":` + testScenario + `,"schemes":["DynaQ","DynQ"]}`, "schemes[1]"},
		{`{"scenario":` + testScenario + `,"schemes":["DynaQ",""]}`, "schemes[1]"},
		{`{"scenario":` + flowDoc + `,"schemes":["DynQ"]}`, "schemes[0]"},
		{strings.Replace(hybridDoc, "DynaQ", "BarberQ", 1), "scheme"},
		{`{"scenario":` + hybridDoc + `,"schemes":["DynaQ","BarberQ"]}`, "schemes[1]"},
		{`{"scenario":` + hybridDoc + `,"schemes":["DynaQ","DT"]}`, "schemes[1]"},
		// An fct cell runs SPQ+DRR whatever its document says, so a job that
		// names another scheduler would be cached as a run nobody asked for.
		{strings.Replace(flowDoc, `"k":4`, `"k":4,"sched":"wrr"`, 1), "sched"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		eb.Field = ""
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Field != tc.field {
			t.Errorf("%s: status %d field %q, want 400 on %q\n%s", tc.body, resp.StatusCode, eb.Field, tc.field, data)
		}
	}

	// Oversized body: 413 before any parsing.
	big := `{"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d, want 413", resp.StatusCode)
	}

	// Unknown job: 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestQueueFull fills the bounded FIFO of a server whose drainer was never
// started and checks the overflow submission is rejected with 503.
func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.QueueDepth = 1 })

	first := strings.Replace(testScenario, `"seed":1`, `"seed":11`, 1)
	if _, resp := submit(t, ts, first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	second := strings.Replace(testScenario, `"seed":1`, `"seed":12`, 1)
	_, resp := submit(t, ts, second)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", resp.StatusCode)
	}
}

// TestDedupeInFlight holds a job at its start hook and resubmits it: the
// duplicate must come back 202 with the same id without enqueuing new work.
func TestDedupeInFlight(t *testing.T) {
	s, ts := newTestServer(t, nil)
	held, release := holdJobs(s)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	j := <-held
	dup, resp := submit(t, ts, testScenario)
	if resp.StatusCode != http.StatusAccepted || dup.ID != st.ID {
		t.Fatalf("duplicate = %d id %s, want 202 id %s", resp.StatusCode, dup.ID, st.ID)
	}
	if dup.State != StateRunning {
		t.Fatalf("duplicate state = %s, want running", dup.State)
	}
	release(j)
	waitTerminal(t, ts, st.ID)
}

// holdJobs makes s hold every job it admits at "running, nothing
// dispatched". Each held job arrives on the returned channel; the returned
// func dispatches one, which is what the admission would have done next.
func holdJobs(s *Server) (<-chan *Job, func(*Job)) {
	held := make(chan *Job, 8) // the hook runs under s.mu and must not block; no test holds more
	s.testJobStart = func(j *Job) bool {
		held <- j
		return true
	}
	return held, func(j *Job) {
		s.do(func(c *coord.Core, now time.Time) []coord.Effect {
			cached := make(map[string]bool)
			for _, cell := range j.Cells {
				cached[cell.Key] = s.artifactCached(cell.Key)
			}
			return c.Dispatch(now, j.ID, cached)
		})
	}
}

// TestJobTimeout runs with a timeout that has already expired by the time
// the first cell would be claimed: the job must fail terminally.
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.JobTimeout = time.Nanosecond })
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateFailed {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "cancelled") {
		t.Fatalf("error = %q, want a cancellation", done.Error)
	}
}

// TestDrainAndRecover is the graceful-shutdown contract: with job A held at
// its start hook (no cell dispatched yet) and job B queued, Shutdown requeues
// A — its marker and request stay on disk in original FIFO position — leaves
// B untouched, and a second daemon instance over the same data dir resumes
// both in order.
func TestDrainAndRecover(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) { c.DataDir = dataDir })
	held, release := holdJobs(s)
	s.Start()

	stA, _ := submit(t, ts, testScenario)
	jobA := <-held
	scenB := strings.Replace(testScenario, `"seed":1`, `"seed":2`, 1)
	stB, _ := submit(t, ts, scenB)

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(shutdownCtx(t)) }()
	// Submissions during drain are refused. Wait for the drain to begin
	// first: a probe that beats Shutdown to s.mu would be accepted and leave
	// a third queue marker behind.
	waitFor(t, func() bool {
		var accepting bool
		s.read(func(c *coord.Core, now time.Time) { accepting = c.Health(now).Accepting })
		return !accepting
	})
	waitFor(t, func() bool {
		_, resp := submit(t, ts, strings.Replace(testScenario, `"seed":1`, `"seed":3`, 1))
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	release(jobA) // too late: the drain has requeued A, and dispatching it now changes nothing
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// A was interrupted before any cell dispatched, so the drain requeued
	// it; B never left the queue. Both persist on disk, A's marker first.
	a := getStatus(t, ts, stA.ID)
	if a.State != StateQueued {
		t.Fatalf("job A state = %s, want queued (requeued by drain)", a.State)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		if _, err := os.Stat(filepath.Join(dataDir, "jobs", id, "request.json")); err != nil {
			t.Fatalf("job %s request not persisted: %v", id, err)
		}
	}
	markers, _ := os.ReadDir(filepath.Join(dataDir, "queue"))
	if len(markers) != 2 || !strings.HasSuffix(markers[0].Name(), "-"+stA.ID) ||
		!strings.HasSuffix(markers[1].Name(), "-"+stB.ID) {
		t.Fatalf("queue markers = %v, want job A then job B", markerNames(markers))
	}
	ts.Close()

	// A fresh instance over the same data dir recovers both in FIFO order
	// and runs them to completion.
	s2, err := New(Config{DataDir: dataDir, Concurrency: 1, Version: "test-v1"})
	if err != nil {
		t.Fatalf("New (recovery): %v", err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if a2 := getStatus(t, ts2, stA.ID); a2.State != StateQueued {
		t.Fatalf("recovered job A state = %s, want queued", a2.State)
	}
	s2.Start()
	defer s2.Shutdown(shutdownCtx(t))
	for _, id := range []string{stA.ID, stB.ID} {
		if st := waitTerminal(t, ts2, id); st.State != StateDone {
			t.Fatalf("recovered job %s state = %s (err %q), want done", id, st.State, st.Error)
		}
	}
	// A job's state turns done under s.mu, its marker goes just after.
	waitFor(t, func() bool {
		rest, _ := os.ReadDir(filepath.Join(dataDir, "queue"))
		return len(rest) == 0
	})
}

func markerNames(entries []os.DirEntry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding status: %v\n%s", err, data)
	}
	return st
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestMetricsEndpoint drives one fresh run and one cache hit, then checks
// /metrics speaks Prometheus text format and carries both the server
// counters and the absorbed simulation series.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	waitTerminal(t, ts, st.ID)
	st2, _ := submit(t, ts, testScenario)
	waitTerminal(t, ts, st2.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE dynaqd_jobs_submitted_total counter",
		"dynaqd_jobs_submitted_total 2",
		"dynaqd_jobs_completed_total 2",
		"dynaqd_cache_hits_total 1",
		"dynaqd_cache_misses_total 1",
		`dynaqd_build_info{version="test-v1"} 1`,
		"dynaqd_queue_depth 0",
		"dynaqd_sim_",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Healthz carries the build version and serving state.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(hb), `"state": "serving"`) || !strings.Contains(string(hb), `"version": "test-v1"`) {
		t.Fatalf("healthz = %s", hb)
	}
}

// TestEventsStream covers both event paths: a live subscriber attached while
// the job is held running sees the full lifecycle, and a second request
// after completion replays the stored events with identical framing.
func TestEventsStream(t *testing.T) {
	s, ts := newTestServer(t, nil)
	held, release := holdJobs(s)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	j := <-held

	liveDone := make(chan []string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			liveDone <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		liveDone <- strings.Split(strings.TrimSpace(string(data)), "\n")
	}()
	// Give the live subscriber a moment to attach before releasing the job;
	// attach-after-finish would exercise the replay path instead.
	time.Sleep(50 * time.Millisecond)
	release(j)

	lines := <-liveDone
	if lines == nil {
		t.Fatal("live events request failed")
	}
	checkEventLines(t, lines)

	// Replay path: terminal job streams stored events plus the final line.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	replay := strings.Split(strings.TrimSpace(string(data)), "\n")
	checkEventLines(t, replay)
	if len(replay) < 3 {
		t.Fatalf("replay stream too short (%d lines): %v", len(replay), replay)
	}
}

// checkEventLines asserts NDJSON framing: every line is an object with a
// cell index, and the last line is the terminal job event.
func checkEventLines(t *testing.T, lines []string) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty event stream")
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if _, ok := obj["cell"]; !ok {
			t.Fatalf("event line missing cell index: %q", line)
		}
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"job"`) || !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("last line is not the terminal job event: %q", last)
	}
}

// TestBroadcaster unit-tests the fan-out: framing, late subscription after
// close, and drop-don't-block on a full buffer.
func TestBroadcaster(t *testing.T) {
	b := newBroadcaster()
	ch := b.subscribe()
	b.publish(3, []byte(`{"kind":"x"}`+"\n"))
	got := string(<-ch)
	if got != `{"cell":3,"kind":"x"}`+"\n" {
		t.Fatalf("framed line = %q", got)
	}

	// Overflow: a slow subscriber drops lines instead of stalling publish.
	for i := 0; i < subBuffer+10; i++ {
		b.publish(0, []byte(`{"n":1}`+"\n"))
	}
	if n := len(ch); n != subBuffer {
		t.Fatalf("buffered = %d, want %d", n, subBuffer)
	}
	if d := b.dropped(); d != 10 {
		t.Fatalf("dropped = %d, want 10", d)
	}

	b.close()
	if _, open := <-b.subscribe(); open {
		t.Fatal("subscribe after close returned an open channel")
	}
	b.publish(0, []byte(`{"n":2}`+"\n")) // must not panic
}

// --- fleet / fault-tolerance coverage ------------------------------------

// healthzField reads one numeric field from /healthz.
func healthzField(t *testing.T, ts *httptest.Server, field string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding healthz: %v\n%s", err, data)
	}
	v, ok := m[field].(float64)
	if !ok {
		t.Fatalf("healthz has no numeric %q: %s", field, data)
	}
	return v
}

// leaseAs is a hand-rolled fleet client for failure-injection tests: it
// requests one lease for the named worker and returns the grant (nil on 204).
func leaseAs(t *testing.T, ts *httptest.Server, worker string) *fleet.LeaseGrant {
	t.Helper()
	body, _ := json.Marshal(fleet.LeaseRequest{Worker: worker})
	resp, err := http.Post(ts.URL+"/v1/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var g fleet.LeaseGrant
		if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
			t.Fatalf("decoding grant: %v", err)
		}
		return &g
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return nil
	default:
		t.Fatalf("lease request status = %d", resp.StatusCode)
		return nil
	}
}

func completeLease(t *testing.T, ts *httptest.Server, leaseID string, req fleet.CompleteRequest) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/leases/"+leaseID+"/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestTmpSweep is the torn-write regression: a crash mid-run or
// mid-promotion leaves partial directories under tmp/; a fresh daemon over
// the same data dir must sweep them at startup (they can never be valid
// artifacts — promotion is an atomic rename) and then operate normally.
func TestTmpSweep(t *testing.T) {
	dataDir := t.TempDir()
	torn := filepath.Join(dataDir, "tmp", "deadbeefcafe")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	// A truncated events file: the classic torn write of a crash mid-run.
	if err := os.WriteFile(filepath.Join(torn, telemetry.EventsFile), []byte(`{"kind":"arr`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "tmp", "upload-orphan42"), 0o755); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, func(c *Config) { c.DataDir = dataDir })
	entries, err := os.ReadDir(filepath.Join(dataDir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("tmp not swept at startup: %v", markerNames(entries))
	}

	// And the daemon is fully functional over the swept tree.
	s.Start()
	defer s.Shutdown(shutdownCtx(t))
	st, _ := submit(t, ts, testScenario)
	if done := waitTerminal(t, ts, st.ID); done.State != StateDone {
		t.Fatalf("job over swept data dir = %s (err %q), want done", done.State, done.Error)
	}
}

// TestQueueFullRetryAfter pins the backpressure contract: the 503 carries a
// Retry-After hint, and a client that honors it gets accepted once the
// drainer frees a slot.
func TestQueueFullRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.QueueDepth = 1 })

	first := strings.Replace(testScenario, `"seed":1`, `"seed":21`, 1)
	if _, resp := submit(t, ts, first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	second := strings.Replace(testScenario, `"seed":1`, `"seed":22`, 1)
	_, resp := submit(t, ts, second)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want delta-seconds >= 1", resp.Header.Get("Retry-After"))
	}

	// Honor the hint: start the drainer, wait the advertised delay between
	// retries, and the submission must land.
	s.Start()
	defer s.Shutdown(shutdownCtx(t))
	deadline := time.Now().Add(30 * time.Second)
	for {
		time.Sleep(time.Duration(secs) * time.Second)
		_, resp = submit(t, ts, second)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("retry status = %d", resp.StatusCode)
		}
		if secs, err = strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Fatalf("retry 503 lost its Retry-After header")
		}
		if time.Now().After(deadline) {
			t.Fatal("honoring client never got accepted")
		}
	}
}

// TestFleetWorkerLifecycle runs a real fleet.Worker against the coordinator:
// the worker registers, the local fallback stands down, the cell is leased,
// computed remotely, uploaded, and absorbed — and the absorbed artifact is
// byte-identical to a fresh local run of the same cell.
func TestFleetWorkerLifecycle(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.LeaseTTL = 500 * time.Millisecond })
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: ts.URL,
		ID:          "w-lifecycle",
		Version:     "test-v1",
		WorkDir:     t.TempDir(),
		Poll:        10 * time.Millisecond,
	})
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() { defer close(wdone); w.Run(wctx) }()
	defer func() { wcancel(); <-wdone }()

	// Only submit once the worker is registered, so the cell cannot be
	// grabbed by the local fallback in the gap.
	waitFor(t, func() bool { return healthzField(t, ts, "workers_active") >= 1 })
	st, _ := submit(t, ts, testScenario)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	cell := done.Cells[0]
	if cell.Worker != "w-lifecycle" || cell.CacheHit {
		t.Fatalf("cell = %+v, want fresh completion by w-lifecycle", cell)
	}

	// Cross-node byte identity: worker-computed, coordinator-absorbed bytes
	// equal a fresh local run through the shared execution path.
	fresh := filepath.Join(t.TempDir(), "fresh")
	man := fleet.CellManifest("test-v1", done.ScenarioHash, cell.Scheme, cell.Seed, cell.CacheKey)
	if _, err := fleet.RunCellTo(fresh, []byte(testScenario), cell.Scheme, cell.Seed, man, nil, nil); err != nil {
		t.Fatalf("fresh RunCellTo: %v", err)
	}
	diffDirs(t, cell.ArtifactDir, fresh)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "dynaqd_cells_remote_total 1") {
		t.Error("metrics do not count the remote completion")
	}
}

// TestDeadLetterQuarantineAndRequeue drives a cell to quarantine with a
// saboteur worker that fails every attempt, checks the dead-letter listing,
// then requeues it and watches the local pool (saboteur gone) finish the
// job clean with a reset attempt budget.
func TestDeadLetterQuarantineAndRequeue(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.LeaseTTL = 100 * time.Millisecond // saboteur fades fast once it stops polling
		c.MaxAttempts = 2
		c.RetryBase = time.Nanosecond // retries ready immediately
		c.RetryCap = time.Microsecond
	})
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	if g := leaseAs(t, ts, "saboteur"); g != nil { // registers the worker; no work yet
		t.Fatalf("unexpected grant before any submission: %+v", g)
	}
	st, _ := submit(t, ts, testScenario)

	for attempt := 1; attempt <= 2; attempt++ {
		var g *fleet.LeaseGrant
		waitFor(t, func() bool { g = leaseAs(t, ts, "saboteur"); return g != nil })
		if g.Attempt != attempt {
			t.Fatalf("grant attempt = %d, want %d", g.Attempt, attempt)
		}
		code := completeLease(t, ts, g.LeaseID, fleet.CompleteRequest{
			Worker: "saboteur", CacheKey: g.CacheKey, Error: "injected fault",
		})
		if code != http.StatusOK {
			t.Fatalf("failure completion status = %d", code)
		}
	}

	done := waitTerminal(t, ts, st.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "quarantined") {
		t.Fatalf("job = %s (err %q), want failed by quarantine", done.State, done.Error)
	}
	if c := done.Cells[0]; c.State != StateQuarantined || c.Attempts != 2 || c.Worker != "saboteur" {
		t.Fatalf("cell = %+v, want quarantined after 2 attempts by saboteur", c)
	}

	resp, err := http.Get(ts.URL + "/v1/deadletter")
	if err != nil {
		t.Fatal(err)
	}
	var list fleet.DeadLetterList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Cells) != 1 {
		t.Fatalf("deadletter = %+v, want 1 entry", list.Cells)
	}
	e := list.Cells[0]
	if e.JobID != st.ID || e.Attempts != 2 || e.LastError != "injected fault" || e.LastWorker != "saboteur" {
		t.Fatalf("deadletter entry = %+v", e)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, "deadletter.json")); err != nil {
		t.Fatalf("dead-letter list not persisted: %v", err)
	}

	// Requeue everything: the job re-enters as a resubmission; with the
	// saboteur no longer polling the local pool runs it successfully, and
	// the attempt budget starts fresh.
	resp, err = http.Post(ts.URL+"/v1/deadletter/requeue", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var rq fleet.RequeueResponse
	if err := json.NewDecoder(resp.Body).Decode(&rq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rq.Requeued) != 1 || rq.Requeued[0] != st.ID || len(rq.Dropped) != 0 {
		t.Fatalf("requeue response = %+v", rq)
	}
	resp, err = http.Get(ts.URL + "/v1/deadletter")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Cells) != 0 {
		t.Fatalf("deadletter after requeue = %+v, want empty", list.Cells)
	}

	redone := waitTerminal(t, ts, st.ID)
	if redone.State != StateDone {
		t.Fatalf("requeued job = %s (err %q), want done", redone.State, redone.Error)
	}
	if c := redone.Cells[0]; c.Attempts != 0 || c.State != StateDone {
		t.Fatalf("requeued cell = %+v, want done with fresh budget", c)
	}
}

// TestRestartPreservesAttemptsAndFIFO is the restart persistence contract:
// a coordinator stopped with a leased-but-unfinished cell (one failed
// attempt already charged) comes back with the job queued, the attempt
// counter intact, and the FIFO order of the backlog preserved. Job A is
// submitted under a named tenant, so the test also pins the tenant-tagged
// marker format: A's marker carries the tenant name, B's (default) marker
// stays empty exactly as the pre-tenant daemon wrote it, and recovery
// restores both tenants.
func TestRestartPreservesAttemptsAndFIFO(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) {
		c.DataDir = dataDir
		c.LeaseTTL = time.Minute  // the flaky worker stays "active"; local pool stands down
		c.RetryBase = time.Minute // the requeued cell is not ready again before shutdown
		c.RetryCap = 2 * time.Minute
	})
	s.Start()

	if g := leaseAs(t, ts, "flaky"); g != nil {
		t.Fatalf("unexpected grant before any submission: %+v", g)
	}
	stA, _ := submitAs(t, ts, "acme", testScenario)
	var g *fleet.LeaseGrant
	waitFor(t, func() bool { g = leaseAs(t, ts, "flaky"); return g != nil })
	if code := completeLease(t, ts, g.LeaseID, fleet.CompleteRequest{
		Worker: "flaky", CacheKey: g.CacheKey, Error: "transient fault",
	}); code != http.StatusOK {
		t.Fatalf("failure completion status = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(dataDir, "jobs", stA.ID, "attempts.json"))
	if err != nil || !strings.Contains(string(data), ":1") {
		t.Fatalf("attempt counter not persisted after first failure: %v %s", err, data)
	}
	scenB := strings.Replace(testScenario, `"seed":1`, `"seed":2`, 1)
	stB, _ := submit(t, ts, scenB)

	if err := s.Shutdown(shutdownCtx(t)); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	markers, _ := os.ReadDir(filepath.Join(dataDir, "queue"))
	if len(markers) != 2 || !strings.HasSuffix(markers[0].Name(), "-"+stA.ID) ||
		!strings.HasSuffix(markers[1].Name(), "-"+stB.ID) {
		t.Fatalf("queue markers = %v, want job A then job B", markerNames(markers))
	}
	// The tenant rides in the marker content; the default tenant's marker
	// is empty — the exact bytes a pre-tenant daemon wrote.
	if data, err := os.ReadFile(filepath.Join(dataDir, "queue", markers[0].Name())); err != nil ||
		strings.TrimSpace(string(data)) != "acme" {
		t.Fatalf("job A marker content = %q (%v), want acme", data, err)
	}
	if data, err := os.ReadFile(filepath.Join(dataDir, "queue", markers[1].Name())); err != nil || len(data) != 0 {
		t.Fatalf("job B marker content = %q (%v), want empty", data, err)
	}
	ts.Close()

	// Second life: no workers this time, so the local pool runs everything.
	s2, err := New(Config{DataDir: dataDir, Concurrency: 1, Version: "test-v1"})
	if err != nil {
		t.Fatalf("New (recovery): %v", err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	a := getStatus(t, ts2, stA.ID)
	if a.State != StateQueued {
		t.Fatalf("recovered job A state = %s, want queued", a.State)
	}
	if a.Tenant != "acme" {
		t.Fatalf("recovered job A tenant = %q, want acme", a.Tenant)
	}
	if b := getStatus(t, ts2, stB.ID); b.Tenant != DefaultTenant {
		t.Fatalf("recovered job B tenant = %q, want %s", b.Tenant, DefaultTenant)
	}
	if a.Cells[0].Attempts != 1 {
		t.Fatalf("recovered attempt counter = %d, want 1", a.Cells[0].Attempts)
	}
	s2.Start()
	defer s2.Shutdown(shutdownCtx(t))
	for _, id := range []string{stA.ID, stB.ID} {
		if st := waitTerminal(t, ts2, id); st.State != StateDone {
			t.Fatalf("recovered job %s = %s (err %q), want done", id, st.State, st.Error)
		}
	}
	// The terminal status still records the pre-restart attempt: the retry
	// budget survived the restart rather than resetting.
	if got := getStatus(t, ts2, stA.ID).Cells[0].Attempts; got != 1 {
		t.Fatalf("terminal attempt counter = %d, want 1", got)
	}
}
