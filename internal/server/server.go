package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dynaq/internal/coord"
	"dynaq/internal/fleet"
)

// Config parameterizes a daemon instance.
type Config struct {
	// DataDir roots all persistent state: jobs/ (requests, terminal
	// statuses, attempt counters), queue/ (pending markers, replayed FIFO
	// on restart), cache/ (content-addressed artifacts), tmp/ (in-progress
	// runs, swept at startup), deadletter.json (quarantined cells).
	DataDir string
	// QueueDepth bounds the job queue across all tenants; a submit beyond
	// it is rejected with 503 + Retry-After. 0 selects 64.
	QueueDepth int
	// TenantWeights maps tenant name to fair-queue round-robin burst size;
	// unlisted tenants weigh 1. nil gives every tenant weight 1.
	TenantWeights map[string]int
	// TenantQuota caps how many jobs one tenant may have queued at once; a
	// tenant at its quota gets its own 503 without consuming the shared
	// queue. 0 disables the per-tenant limit.
	TenantQuota int
	// TenantInflight caps how many of one tenant's cells may be dispatched
	// (leased to workers or claimed by the local pool) at once. 0 disables
	// the cap.
	TenantInflight int
	// Concurrency caps the local-fallback executor pool that runs a job's
	// cells when no fleet workers are registered. 0 selects GOMAXPROCS.
	Concurrency int
	// JobTimeout bounds one job's execution on Clock; past it the job
	// fails terminally. Cells already in flight finish (a single-goroutine
	// simulation cannot be preempted), but no further cells start. 0
	// disables the timeout.
	JobTimeout time.Duration
	// LeaseTTL bounds how long a worker may hold a cell between
	// heartbeats; past it the cell is requeued for someone else. 0
	// selects 15s.
	LeaseTTL time.Duration
	// MaxAttempts caps how many times one cell may run (across workers
	// and local fallback) before it is quarantined to the dead-letter
	// list. 0 selects 3.
	MaxAttempts int
	// RetryBase and RetryCap shape the capped exponential backoff between
	// attempts of a failed cell. Zero values select 250ms and 10s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Clock is the injected time source for lease expiry, retry
	// readiness, worker liveness, and job deadlines. nil selects
	// fleet.WallClock; the chaos harness injects a fleet.ManualClock.
	Clock fleet.Clock
	// Version is the build stamp (dynaq.Version) folded into cache keys
	// and manifests.
	Version string
	// Log receives lifecycle lines; nil silences them.
	Log *log.Logger
}

// Server is the dynaqd coordinator's shell: it decodes a request, runs one
// op of the core (internal/coord) under mu, applies the effects the op
// returns — files under DataDir, event streams, log lines — and replies. It
// owns what the core cannot: the cache, the local executor pool, and the
// maintenance loop that sleeps until the core's next deadline. Create with
// New, start with Start, stop with Shutdown.
type Server struct {
	cfg   Config
	clock fleet.Clock
	mux   *http.ServeMux

	mu      sync.Mutex
	core    *coord.Core             // guarded by mu
	streams map[string]*broadcaster // guarded by mu; one per job accepted in this life
	armed   time.Time               // guarded by mu; the deadline the maintenance loop sleeps toward (zero: none)
	drained bool                    // guarded by mu; done has been closed

	// kick wakes one idle local executor, wake the maintenance loop; both
	// are buffered-1, so a nudge sent while nobody waits is seen by the
	// next to. cancel stops the goroutines (after what they hold), loops
	// waits for them, done closes once a drain has left no job running.
	kick, wake chan struct{}
	ctx        context.Context
	cancel     context.CancelFunc
	loops      sync.WaitGroup
	done       chan struct{}

	// testJobStart (tests only) is asked about every job leaving the queue;
	// true holds it at "running, nothing dispatched" until the test
	// dispatches it.
	testJobStart func(*Job) bool
	// testCellTee (tests only) sees every event line of a locally run cell
	// before it is published.
	testCellTee func(line []byte)
}

// New builds a server over DataDir, recovering persisted state: terminal
// jobs become queryable again, queued jobs re-enter the FIFO in order with
// attempt counters intact, the dead-letter list is reloaded, and tmp
// directories orphaned by a crash are swept. Admission waits for Start.
func New(cfg Config) (*Server, error) {
	for _, sub := range []string{"jobs", "queue", "cache", "tmp"} {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		clock:   cfg.Clock,
		streams: make(map[string]*broadcaster),
		kick:    make(chan struct{}, 1),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if s.clock == nil {
		s.clock = fleet.WallClock{}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.core = coord.New(coord.Config{
		QueueDepth:     cfg.QueueDepth,
		TenantWeights:  cfg.TenantWeights,
		TenantQuota:    cfg.TenantQuota,
		TenantInflight: cfg.TenantInflight,
		JobTimeout:     cfg.JobTimeout,
		LeaseTTL:       cfg.LeaseTTL,
		MaxAttempts:    cfg.MaxAttempts,
		Backoff:        fleet.Backoff{Base: cfg.RetryBase, Cap: cfg.RetryCap},
		Version:        cfg.Version,
		CellDir:        s.cellDir,
		Clock:          s.clock,
		EventsDropped:  s.eventsDropped,
	})

	if n, err := s.sweepTmp(); err != nil {
		return nil, err
	} else if n > 0 {
		s.logf("swept %d orphaned tmp director(ies) left by a previous crash", n)
	}
	snap, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	s.do(func(c *coord.Core, now time.Time) []coord.Effect { return c.Recover(now, snap) })
	s.routes()
	return s, nil
}

// eventsDropped sums the lines discarded on stalled subscribers.
func (s *Server) eventsDropped() int64 {
	var n int64
	// Runs inside the core's Metrics render, which handleMetrics calls with
	// s.mu held; locking here would self-deadlock.
	for _, bc := range s.streams {
		n += bc.dropped()
	}
	return n
}

// sweepTmp removes every entry under DataDir/tmp. Promotion into the cache
// is an atomic rename, so anything still in tmp when a daemon starts is the
// torn residue of a crash mid-run or mid-promotion — never a valid artifact.
func (s *Server) sweepTmp() (int, error) {
	dir := filepath.Join(s.cfg.DataDir, "tmp")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("server: sweeping tmp: %w", err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return 0, fmt.Errorf("server: sweeping tmp: %w", err)
		}
	}
	return len(entries), nil
}

// Start begins admission and launches the maintenance loop and the local
// executor pool. The goroutines take the server's own context, which
// Shutdown cancels; a caller's ctx would end them with the caller.
func (s *Server) Start() {
	s.do((*coord.Core).Start)
	pool := s.cfg.Concurrency
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	s.loops.Add(1 + pool)
	go s.maintain(s.ctx)
	for i := 0; i < pool; i++ {
		go s.localExecutor(s.ctx)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains gracefully: new submissions are rejected, cells executing
// locally finish (and land in the cache), leased and pending cells are
// requeued — their job reverts to queued with attempts persisted — and
// queued jobs stay on disk for the next instance. It returns once no job is
// running and the server's goroutines have exited, or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.do((*coord.Core).Drain)
	s.cancel()
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.loops.Wait()
	s.read(func(c *coord.Core, _ time.Time) {
		queued := 0
		for _, st := range c.List() {
			if st.State == StateQueued {
				queued++
			}
		}
		s.logf("drained; %d job(s) left queued on disk", queued)
	})
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// do runs one op of the core at the current instant and applies its
// effects, all under mu, so nobody observes a job done before its status is
// on disk; then it wakes the maintenance loop if a deadline moved closer.
func (s *Server) do(op func(c *coord.Core, now time.Time) []coord.Effect) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	s.applyLocked(now, op(s.core, now))
	if next, ok := s.core.NextDeadline(now); ok && (s.armed.IsZero() || next.Before(s.armed)) {
		nudge(s.wake)
	}
}

// read runs a read-only view under mu. Like do it hands the core to its
// argument: the only way to the core is through the lock.
func (s *Server) read(view func(c *coord.Core, now time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	view(s.core, s.clock.Now())
}

// nudge signals a buffered-1 channel without blocking; bursts coalesce.
func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// applyLocked carries out the effects of one op, in order. A Probe is
// answered in place and the effects of that Dispatch follow in the same
// pass, so admission, dispatch and the settlement of an all-cached job
// happen in one lock hold. A failed write is logged and the rest go on: the
// in-memory state stays authoritative for this life. An effect list is
// applied to the end whatever became of the request that produced it;
// stopping halfway would leave disk and core disagreeing.
func (s *Server) applyLocked(now time.Time, effs []coord.Effect) {
	for i := 0; i < len(effs); i++ {
		e := effs[i]
		switch e.Kind {
		case coord.OpenStream:
			s.streams[e.Job.ID] = newBroadcaster()
		case coord.PersistRequest:
			// The request body plus a marker holding the FIFO position let
			// a queued job survive a restart. A non-default tenant is the
			// marker's content; default-tenant markers stay empty, as
			// before tenancy existed. Attempt counters of an earlier life
			// of the id go: a (re)submission has a fresh retry budget.
			s.writeFile(filepath.Join("jobs", e.Job.ID, "request.json"), e.Data)
			os.Remove(filepath.Join(s.jobDir(e.Job.ID), "attempts.json"))
			var tenant []byte
			if e.Job.Tenant != DefaultTenant {
				tenant = []byte(e.Job.Tenant + "\n")
			}
			s.writeFile(filepath.Join("queue", e.Marker), tenant)
		case coord.Probe:
			if s.testJobStart != nil && s.testJobStart(e.Job) {
				continue
			}
			cached := make(map[string]bool)
			for _, c := range e.Job.Cells {
				cached[c.Key] = s.artifactCached(c.Key)
			}
			effs = append(effs, s.core.Dispatch(now, e.Job.ID, cached)...)
		case coord.Publish:
			s.streams[e.Job.ID].publish(e.Cell, e.Data)
		case coord.PersistAttempts:
			if len(e.Attempts) == 0 {
				os.Remove(filepath.Join(s.jobDir(e.Job.ID), "attempts.json"))
			} else if data, err := json.Marshal(e.Attempts); err == nil {
				s.writeFile(filepath.Join("jobs", e.Job.ID, "attempts.json"), append(data, '\n'))
			}
		case coord.PersistDeadLetter:
			if data, err := json.MarshalIndent(e.Dead, "", "  "); err == nil {
				s.writeFile("deadletter.json", append(data, '\n'))
			}
		case coord.PersistStatus:
			if data, err := json.MarshalIndent(e.Status, "", "  "); err == nil {
				s.writeFile(filepath.Join("jobs", e.Job.ID, "status.json"), append(data, '\n'))
			}
		case coord.WriteTrace:
			// Beside the status, never in the cache: spans carry wall time.
			s.writeFile(filepath.Join("jobs", e.Job.ID, traceFileName), e.Data)
		case coord.RemoveMarker:
			os.Remove(filepath.Join(s.cfg.DataDir, "queue", e.Marker))
		case coord.CloseStream:
			s.streams[e.Job.ID].close()
		case coord.Log:
			s.logf("%s", e.Msg)
		}
	}
	if !s.drained && s.core.Drained() {
		s.drained = true
		close(s.done)
	}
	nudge(s.kick)
}

// writeFile writes one file under DataDir, creating its directory.
func (s *Server) writeFile(rel string, data []byte) {
	path := filepath.Join(s.cfg.DataDir, rel)
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		s.logf("persisting %s: %v", rel, err)
	}
}

// maintain is the one timekeeper: it runs the core's Tick when a deadline
// the core named has come — a lease lapsing, a worker going quiet, a backoff
// elapsing, a job out of time — and sleeps on the clock until the next. An
// op that moves the next deadline earlier wakes it to re-arm.
func (s *Server) maintain(ctx context.Context) {
	defer s.loops.Done()
	for {
		s.mu.Lock()
		now := s.clock.Now()
		s.applyLocked(now, s.core.Tick(now))
		next, ok := s.core.NextDeadline(now)
		s.armed = next
		s.mu.Unlock()
		var timer <-chan time.Time
		if ok {
			timer = s.clock.After(next.Sub(now))
		}
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		case <-timer:
		}
	}
}

// --- recovery -------------------------------------------------------------------

func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.DataDir, "jobs", id) }

// loadSnapshot reads what a previous life left under DataDir. Pending jobs
// come back in marker order, including those mid-dispatch when the daemon
// stopped, attempt counters intact. The tenant is the marker's content
// (it covers header-tagged submissions), else the request body's. Cells
// are re-expanded under the current build, so work queued before an
// upgrade re-runs instead of hitting a stale cache.
func (s *Server) loadSnapshot() (coord.Snapshot, error) {
	var snap coord.Snapshot
	data, err := os.ReadFile(filepath.Join(s.cfg.DataDir, "deadletter.json"))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &snap.Dead); err != nil {
			return snap, fmt.Errorf("server: parsing deadletter.json: %w", err)
		}
	case !os.IsNotExist(err):
		return snap, fmt.Errorf("server: %w", err)
	}

	markers, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "queue"))
	if err != nil {
		return snap, fmt.Errorf("server: %w", err)
	}
	for _, e := range markers {
		snap.Markers = append(snap.Markers, e.Name())
	}
	sort.Strings(snap.Markers)

	jobs, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "jobs"))
	if err != nil {
		return snap, fmt.Errorf("server: %w", err)
	}
	for _, e := range jobs {
		data, err := os.ReadFile(filepath.Join(s.jobDir(e.Name()), "status.json"))
		if err != nil {
			continue // queued job (no terminal status yet) or foreign file
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil || !coord.Terminal(st.State) {
			continue
		}
		snap.Terminal = append(snap.Terminal, st)
	}

	for _, name := range snap.Markers {
		_, id, ok := strings.Cut(name, "-")
		if !ok {
			continue
		}
		marker := filepath.Join(s.cfg.DataDir, "queue", name)
		body, err := os.ReadFile(filepath.Join(s.jobDir(id), "request.json"))
		if err != nil {
			s.logf("job %s: dropping unreadable queued request: %v", id, err)
			os.Remove(marker)
			continue
		}
		tenant, _ := os.ReadFile(marker)
		j, err := rebuildJob(body, id, strings.TrimSpace(string(tenant)), s.cfg.Version)
		if err != nil {
			s.logf("job %s: queued request no longer validates: %v", id, err)
			os.Remove(marker)
			continue
		}
		j.Marker = name
		s.loadAttempts(j)
		snap.Queued = append(snap.Queued, j)
	}
	return snap, nil
}

// rebuildJob re-expands a job from its persisted request, keeping the
// persisted id even if expansion rules have evolved. A non-empty tenant
// overrides the body's (header-tagged submissions have none there).
func rebuildJob(body []byte, id, tenant, version string) (*Job, error) {
	req := parseRequest(body)
	if tenant != "" {
		req.Tenant = tenant
	}
	j, err := buildJob(req, version)
	if err != nil {
		return nil, err
	}
	j.ID = id
	return j, nil
}

// loadAttempts restores persisted attempt counters onto a recovered job.
func (s *Server) loadAttempts(j *Job) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(j.ID), "attempts.json"))
	if err != nil {
		return
	}
	var counts map[string]int
	if err := json.Unmarshal(data, &counts); err != nil {
		s.logf("job %s: unreadable attempts.json: %v", j.ID, err)
		return
	}
	for _, c := range j.Cells {
		if n, ok := counts[c.AttemptKey()]; ok {
			c.Attempts = n
		}
	}
}
