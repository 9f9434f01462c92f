package main

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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynaq/internal/fleet"
	"dynaq/internal/server"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// Service workloads are closed loops against an in-process coordinator
// behind httptest.NewServer on loopback: one submitter connection and one
// stub-worker connection, each sending its next request only after the
// previous reply. The stub worker never simulates: it answers every lease
// with a fixed two-file artifact, so what is measured is submit → fairq →
// lease → absorb → settle and nothing else.
const (
	svcCellsPerJob = 8
	svcTenants     = 4
	svcQueueDepth  = 1000
	svcLeaseTTL    = 60 * time.Second
	svcPayloadSize = 4096
	svcWorkerName  = "bench-stub"

	svcDispatchUnit = "one cell dispatched (submit → lease → complete → done)"
	svcCachedUnit   = "one resubmitted job of 8 cached cells (POST → done)"
	// svcIdlePoll is how long the stub worker waits after a 204 before it
	// polls again. Without it an idle worker spins on the coordinator's
	// lock against the submitter on a two-core box.
	svcIdlePoll = 200 * time.Microsecond
)

// svcJobs is how many jobs one rep submits: 100 × 8 cells in a full run.
// The DataDir defaults to the checkout's own filesystem, so a run keeps its
// footprint to a few thousand directories.
func svcJobs(cfg config) int {
	if cfg.smoke {
		return 6
	}
	return 100
}

// coordinator is one in-process dynaqd over its own DataDir.
type coordinator struct {
	srv *server.Server
	ts  *httptest.Server
	dir string
}

func startCoordinator(dir string) (*coordinator, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		DataDir:    dir,
		QueueDepth: svcQueueDepth,
		LeaseTTL:   svcLeaseTTL,
		Version:    "bench",
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &coordinator{srv: srv, ts: httptest.NewServer(srv), dir: dir}, nil
}

// stop shuts the coordinator down. Its DataDir stays until the run ends.
func (c *coordinator) stop() error {
	c.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.srv.Shutdown(ctx)
}

// callLog collects what the traced run records around every HTTP call: a
// span under root and the call's latency by operation. A nil *callLog
// records nothing, which is how the untraced run stays untouched.
type callLog struct {
	root *trace.SpanRef
	mu   sync.Mutex
	ms   map[string][]float64 // guarded by mu
}

func newCallLog(root *trace.SpanRef) *callLog {
	return &callLog{root: root, ms: make(map[string][]float64)}
}

func (l *callLog) latencies(op string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms[op]...)
}

// caller is one keep-alive connection to the coordinator.
type caller struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	log  *callLog
}

func newCaller(base string, log *callLog) *caller {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &caller{base: base, tr: tr, hc: &http.Client{Transport: tr}, log: log}
}

func (c *caller) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and body. op names the call
// in spans and latency tables; job tags the span with the job it serves.
func (c *caller) do(op, method, path string, body []byte, tenant, job string) (int, []byte, error) {
	var span *trace.SpanRef
	var t0 time.Time
	if c.log != nil {
		span = c.log.root.Child(method+" "+op, trace.A("job", job))
		t0 = now()
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Dynaq-Tenant", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		span.End(trace.A("error", err.Error()))
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.log != nil {
		span.End(trace.AInt("status", int64(resp.StatusCode)))
		c.log.mu.Lock()
		c.log.ms[op] = append(c.log.ms[op], since(t0).Seconds()*1e3)
		c.log.mu.Unlock()
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// stubArtifact is what the stub worker uploads for a cell: a manifest plus a
// 4 KiB payload, both a pure function of the cache key, so svc_cached can
// compare what the cache serves byte for byte with what was uploaded.
func stubArtifact(key string) map[string][]byte {
	payload := bytes.Repeat([]byte(key+"\n"), svcPayloadSize/(len(key)+1)+1)[:svcPayloadSize]
	return map[string][]byte{
		telemetry.ManifestFile: []byte(`{"tool":"bench-stub","cache_key":"` + key + `"}` + "\n"),
		telemetry.EventsFile:   payload,
	}
}

// stubWorker is the single fleet worker of a service workload.
type stubWorker struct {
	c *caller

	granted     int64
	empty       int64
	completed   int64
	uploadBytes int64
}

// register makes the coordinator see a live worker before the first submit,
// which is what keeps it from running cells on its local fallback pool.
func (w *stubWorker) register() error {
	status, _, err := w.poll()
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("registering poll: status %d, want 204", status)
	}
	return nil
}

func (w *stubWorker) poll() (int, []byte, error) {
	return w.c.do("/v1/leases", http.MethodPost, "/v1/leases",
		[]byte(`{"worker":"`+svcWorkerName+`"}`), "", "")
}

// run leases and completes cells until ctx is cancelled.
func (w *stubWorker) run(ctx context.Context) error {
	for ctx.Err() == nil {
		status, body, err := w.poll()
		if err != nil {
			return err
		}
		switch status {
		case http.StatusNoContent:
			w.empty++
			time.Sleep(svcIdlePoll)
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("lease poll: unexpected status %d: %s", status, body)
		}
		var grant fleet.LeaseGrant
		if err := json.Unmarshal(body, &grant); err != nil {
			return fmt.Errorf("decoding lease grant: %w", err)
		}
		w.granted++
		done, err := json.Marshal(fleet.CompleteRequest{
			Worker:   svcWorkerName,
			CacheKey: grant.CacheKey,
			Files:    stubArtifact(grant.CacheKey),
		})
		if err != nil {
			return err
		}
		w.uploadBytes += int64(len(done))
		status, body, err = w.c.do("/v1/leases/{id}/complete", http.MethodPost,
			"/v1/leases/"+grant.LeaseID+"/complete", done, "", grant.JobID)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("complete %s: unexpected status %d: %s", grant.LeaseID, status, body)
		}
		w.completed++
	}
	return nil
}

// svcJob is one submission of a rep.
type svcJob struct {
	tenant string
	body   []byte
	id     string
}

// svcJobList builds the rep's jobs: one scenario document fanned out over
// cellsPerJob seeds, all distinct and all derived from base, spread
// round-robin over the tenants.
func svcJobList(doc []byte, jobs int, base int64) []svcJob {
	out := make([]svcJob, jobs)
	for j := range out {
		seeds := make([]int64, svcCellsPerJob)
		for k := range seeds {
			seeds[k] = base + int64(j*svcCellsPerJob+k)
		}
		body, err := json.Marshal(server.Request{Scenario: doc, Seeds: seeds})
		if err != nil {
			panic(err) // fixed struct of ints and a valid document
		}
		out[j] = svcJob{tenant: "t" + strconv.Itoa(j%svcTenants), body: body}
	}
	return out
}

// submit posts one job and records its id.
func submit(c *caller, j *svcJob) error {
	status, body, err := c.do("/v1/jobs", http.MethodPost, "/v1/jobs", j.body, j.tenant, j.id)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit: unexpected status %d: %s", status, body)
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decoding submit reply: %w", err)
	}
	j.id = st.ID
	return nil
}

// jobStatus fetches a job's status once.
func jobStatus(c *caller, id string) (server.JobStatus, error) {
	var st server.JobStatus
	status, body, err := c.do("/v1/jobs/{id}", http.MethodGet, "/v1/jobs/"+id, nil, "", id)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("status of %s: unexpected status %d: %s", id, status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding status of %s: %w", id, err)
	}
	return st, nil
}

func terminal(st server.JobStatus) bool {
	return st.State == server.StateDone || st.State == server.StateFailed
}

// awaitDone returns a job's terminal status. A job that is not terminal yet
// is waited for on its event stream, which the coordinator ends when the job
// settles: the number of calls does not grow with how long the wait is.
func awaitDone(c *caller, id string) (server.JobStatus, error) {
	for attempt := 0; ; attempt++ {
		st, err := jobStatus(c, id)
		if err != nil || terminal(st) {
			return st, err
		}
		if attempt == 3 {
			return st, fmt.Errorf("job %s still %s after its event stream ended", id, st.State)
		}
		status, _, err := c.do("/v1/jobs/{id}/events", http.MethodGet, "/v1/jobs/"+id+"/events", nil, "", id)
		if err != nil {
			return st, err
		}
		if status != http.StatusOK {
			return st, fmt.Errorf("events of %s: unexpected status %d", id, status)
		}
	}
}

// spinDone polls a job's status back to back until it is terminal; this is
// how svc_cached times a cached job from POST to done.
func spinDone(c *caller, id string) (server.JobStatus, error) {
	deadline := now().Add(30 * time.Second)
	for {
		st, err := jobStatus(c, id)
		if err != nil || terminal(st) {
			return st, err
		}
		if now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after 30s", id, st.State)
		}
		runtime.Gosched()
	}
}

// countCells tallies a terminal job into the report: a cell that is not done
// (or, when wantHit, was not served from cache) is a failed operation.
func countCells(r *report, st server.JobStatus, wantHit bool) (hits int64) {
	if st.State != server.StateDone {
		r.failf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	for _, c := range st.Cells {
		ok := c.State == server.StateDone && c.CacheHit == wantHit
		if !ok {
			r.Failed++
			r.failf("job %s cell %d: state %s cache_hit %v (want done, cache_hit %v)",
				st.ID, c.Index, c.State, c.CacheHit, wantHit)
		}
		if c.CacheHit {
			hits++
		}
	}
	return hits
}

// scrape reads the coordinator's /metrics into name → value, summing the
// series of one name across its labels.
func scrape(c *caller) (map[string]int64, error) {
	status, body, err := c.do("/metrics", http.MethodGet, "/metrics", nil, "", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue // histogram sums and the like are not needed here
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// dispatchStats is what one dispatch rep did, as the client saw it. Wall
// time and allocation both run from the first submit to the last job done.
type dispatchStats struct {
	wall    time.Duration
	alloc   uint64
	mallocs uint64
	worker  stubWorker
	hits    int64
}

// dispatchRep pushes every job's cells through coord with a stub worker:
// the worker registers, the submitter posts the jobs back to back and then
// waits for each to be done.
func dispatchRep(coord *coordinator, jobs []svcJob, r *report, log *callLog) (dispatchStats, error) {
	var ds dispatchStats
	sub := newCaller(coord.ts.URL, log)
	defer sub.close()
	wc := newCaller(coord.ts.URL, log)
	defer wc.close()
	ds.worker.c = wc
	if err := ds.worker.register(); err != nil {
		return ds, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerErr := make(chan error, 1)
	go func() { workerErr <- ds.worker.run(ctx) }()

	final := make([]server.JobStatus, 0, len(jobs))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := now()
	err := func() error {
		for i := range jobs {
			if err := submit(sub, &jobs[i]); err != nil {
				return err
			}
		}
		for i := range jobs {
			st, err := awaitDone(sub, jobs[i].id)
			if err != nil {
				return err
			}
			final = append(final, st)
		}
		return nil
	}()
	ds.wall = since(t0)
	cancel()
	if werr := <-workerErr; err == nil {
		err = werr
	}
	runtime.ReadMemStats(&m1)
	ds.alloc, ds.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	if err != nil {
		return ds, err
	}
	for _, st := range final {
		ds.hits += countCells(r, st, false)
	}
	return ds, nil
}

// checkDispatched asserts the coordinator agrees with the client: every cell
// completed remotely, none from cache, none run locally, nothing
// quarantined or rejected.
func checkDispatched(coord *coordinator, ds dispatchStats, cells int64, r *report, log *callLog) {
	c := newCaller(coord.ts.URL, log)
	defer c.close()
	m, err := scrape(c)
	if err != nil {
		r.failf("scraping /metrics: %v", err)
		return
	}
	for _, want := range []struct {
		name string
		n    int64
	}{
		{"dynaqd_cells_remote_total", cells},
		{"dynaqd_leases_granted_total", ds.worker.granted},
		{"dynaqd_cache_hits_total", ds.hits},
		{"dynaqd_cells_completed_total", 0},
		{"dynaqd_jobs_rejected_total", 0},
		{"dynaqd_deadletter_total", 0},
	} {
		if got := m[want.name]; got != want.n {
			r.failf("%s = %d, want %d", want.name, got, want.n)
		}
	}
	if ds.hits != 0 {
		r.failf("%d cells came back as cache hits on a fresh DataDir", ds.hits)
	}
	if ds.worker.completed != cells {
		r.failf("stub worker completed %d cells, want %d", ds.worker.completed, cells)
	}
	status, body, err := c.do("/v1/deadletter", http.MethodGet, "/v1/deadletter", nil, "", "")
	var dl fleet.DeadLetterList
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &dl)
	}
	if err != nil || status != http.StatusOK {
		r.failf("GET /v1/deadletter: status %d, err %v", status, err)
	} else if len(dl.Cells) != 0 {
		r.failf("dead-letter list holds %d cells, want none", len(dl.Cells))
	}
}

// memDelta measures allocation across fn.
func memDelta(fn func() error) (allocBytes, mallocs uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs, err
}

// svcSeedBase spaces the seed lists of reps apart so no two reps of a run
// (or of neighbouring -seed values) share a cell.
func svcSeedBase(cfg config, rep int) int64 {
	return cfg.seed*1_000_000_000 + int64(rep)*1_000_000
}

// runSvcDispatch is the coordinator write path. Each rep gets a fresh
// coordinator and DataDir.
func runSvcDispatch(cfg config) *report {
	r := newReport("svc_dispatch", svcDispatchUnit)
	doc := workloadDoc("star_packet")
	jobs := svcJobs(cfg)
	cells := int64(jobs * svcCellsPerJob)
	dir := func(tag string, i int) string {
		return filepath.Join(cfg.scratch, fmt.Sprintf("svc_dispatch-%s%d", tag, i))
	}

	// rep runs one full dispatch on a fresh coordinator; warm reps are a
	// quarter the size and belong to set-up.
	rep := func(tag string, i, n int, timed bool) (wallUS, allocKB, allocs float64, err error) {
		coord, err := startCoordinator(dir(tag, i))
		if err != nil {
			return 0, 0, 0, err
		}
		ds, err := dispatchRep(coord, svcJobList(doc, n, svcSeedBase(cfg, i)), r, nil)
		if err == nil && timed {
			checkDispatched(coord, ds, int64(n*svcCellsPerJob), r, nil)
		}
		if serr := coord.stop(); err == nil {
			err = serr
		}
		per := float64(n * svcCellsPerJob)
		return ds.wall.Seconds() * 1e6 / per, float64(ds.alloc) / 1e3 / per, float64(ds.mallocs) / per, err
	}

	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		t0 := now()
		if _, _, _, err := rep("warm", i, (jobs+3)/4, false); err != nil {
			r.failf("set-up: %v", err)
			return r
		}
		setups = append(setups, since(t0).Seconds())
	}
	r.Metrics["setup_s"] = summarize("s", setups)

	var wall, alloc, mallocs, cps []float64
	for i := 0; i < cfg.reps(6); i++ {
		r.Attempted += cells
		w, a, m, err := rep("rep", i, jobs, true)
		if err != nil {
			r.Failed += cells
			r.failf("rep %d: %v", i, err)
			continue
		}
		wall, alloc, mallocs = append(wall, w), append(alloc, a), append(mallocs, m)
		cps = append(cps, 1e6/w)
	}
	r.Metrics["unit_wall_us"] = summarize("us", wall)
	r.Metrics["unit_alloc_kb"] = summarize("KB", alloc)
	r.Metrics["unit_allocs"] = summarize("count", mallocs)
	r.Info["cells_per_s"] = summarize("1/s", cps)
	r.Counts["cells_per_rep"] = cells
	return r
}

// cachedServer is the svc_cached fixture: a coordinator whose cache already
// holds every cell of jobs.
type cachedServer struct {
	coord *coordinator
	jobs  []svcJob
}

func fillCache(cfg config, tag string, r *report) (*cachedServer, error) {
	coord, err := startCoordinator(filepath.Join(cfg.scratch, "svc_cached-"+tag))
	if err != nil {
		return nil, err
	}
	jobs := svcJobList(workloadDoc("star_packet"), svcJobs(cfg), svcSeedBase(cfg, 0))
	ds, err := dispatchRep(coord, jobs, r, nil)
	if err == nil && ds.hits != 0 {
		err = fmt.Errorf("cache fill saw %d cache hits on a fresh DataDir", ds.hits)
	}
	if err != nil {
		coord.stop()
		return nil, err
	}
	return &cachedServer{coord: coord, jobs: jobs}, nil
}

// pass resubmits every job once from one client and returns each job's
// POST → done latency in microseconds. Every cell must be a cache hit.
func (cs *cachedServer) pass(r *report, log *callLog) ([]float64, int64, error) {
	c := newCaller(cs.coord.ts.URL, log)
	defer c.close()
	lat := make([]float64, 0, len(cs.jobs))
	var hits int64
	for i := range cs.jobs {
		t0 := now()
		if err := submit(c, &cs.jobs[i]); err != nil {
			return lat, hits, err
		}
		st, err := spinDone(c, cs.jobs[i].id)
		if err != nil {
			return lat, hits, err
		}
		lat = append(lat, since(t0).Seconds()*1e6)
		hits += countCells(r, st, true)
		if !st.CacheHit {
			r.failf("job %s: cache_hit false on a resubmission", st.ID)
		}
	}
	return lat, hits, nil
}

// pick maps a seed, negative ones too, onto [0, n).
func pick(seed int64, n int) int { return int((seed%int64(n) + int64(n)) % int64(n)) }

// checkArtifact compares one sampled cell's cached artifact byte for byte
// with what the stub worker uploaded for it.
func (cs *cachedServer) checkArtifact(cfg config, r *report) {
	c := newCaller(cs.coord.ts.URL, nil)
	defer c.close()
	j := cs.jobs[pick(cfg.seed, len(cs.jobs))]
	st, err := jobStatus(c, j.id)
	if err != nil {
		r.failf("artifact check: %v", err)
		return
	}
	if len(st.Cells) != svcCellsPerJob {
		r.failf("artifact check: job %s has %d cells, want %d", j.id, len(st.Cells), svcCellsPerJob)
		return
	}
	cell := st.Cells[pick(cfg.seed, svcCellsPerJob)]
	want := stubArtifact(cell.CacheKey)
	entries, err := os.ReadDir(cell.ArtifactDir)
	if err != nil {
		r.failf("artifact check: %v", err)
		return
	}
	if len(entries) != len(want) {
		r.failf("artifact %s holds %d files, uploaded %d", cell.CacheKey, len(entries), len(want))
	}
	for name, data := range want {
		got, err := os.ReadFile(filepath.Join(cell.ArtifactDir, name))
		if err != nil || !bytes.Equal(got, data) {
			r.failf("artifact %s/%s differs from the upload (err %v)", cell.CacheKey, name, err)
		}
	}
}

// runSvcCached is the coordinator read path: set-up fills the cache, the
// timed passes resubmit every job and time each until it is done.
func runSvcCached(cfg config) *report {
	r := newReport("svc_cached", svcCachedUnit)
	var cs *cachedServer
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		if cs != nil {
			if err := cs.coord.stop(); err != nil {
				r.failf("set-up: %v", err)
				return r
			}
		}
		t0 := now()
		var err error
		if cs, err = fillCache(cfg, "fill"+strconv.Itoa(i), r); err != nil {
			r.failf("set-up: %v", err)
			return r
		}
		setups = append(setups, since(t0).Seconds())
	}
	defer cs.coord.stop()
	r.Metrics["setup_s"] = summarize("s", setups)

	jobs := int64(len(cs.jobs))
	var all, alloc, mallocs []float64
	for i := 0; i < cfg.reps(10); i++ {
		r.Attempted += jobs * svcCellsPerJob
		var lat []float64
		ab, ma, err := memDelta(func() error {
			var err error
			lat, _, err = cs.pass(r, nil)
			return err
		})
		if err != nil {
			r.Failed += (jobs - int64(len(lat))) * svcCellsPerJob
			r.failf("pass %d: %v", i, err)
			continue
		}
		all = append(all, lat...)
		alloc = append(alloc, float64(ab)/1e3/float64(jobs))
		mallocs = append(mallocs, float64(ma)/float64(jobs))
	}
	cs.checkArtifact(cfg, r)

	sort.Float64s(all)
	wall := summarize("us", all)
	r.Metrics["unit_wall_us"] = wall
	r.Metrics["unit_alloc_kb"] = summarize("KB", alloc)
	r.Metrics["unit_allocs"] = summarize("count", mallocs)
	r.Info["job_ms_p50"] = one("ms", wall.Median/1e3)
	r.Info["job_ms_p99"] = one("ms", quantile(all, 0.99)/1e3)
	r.Counts["jobs_per_pass"] = jobs
	return r
}
