// Package coord is dynaqd's coordinator as a state machine: every job, cell,
// lease and tenant transition, and nothing else. An op takes the instant it
// happens at and whatever it needs from outside (a built job, which keys the
// cache holds, what an upload turned out to be), changes the state, and
// returns its reply plus the effects the shell around it must apply — what
// to persist, what to publish on a job's event stream, what to log.
//
// The package does no I/O and starts nothing: no file, socket, lock,
// goroutine, channel or clock read (purity_test.go parses the package and
// fails on any; dynaqlint holds it to the strict-time rule). Its caller
// serializes ops under one mutex. That lets the deterministic simulation in
// dst_test.go drive any interleaving of ops, clock jumps and crashes and
// check the serving layer's invariants — exactly-once cell completion,
// per-tenant FIFO, bounded starvation — after every op, the way the paper
// states DynaQ's as checks on every arrival.
//
// Metrics and spans stay inside: registry and tracers are memory, and
// keeping them here keeps the effect set small and closed.
package coord

import (
	"bytes"
	"sort"
	"strconv"
	"time"

	"dynaq/internal/fairq"
	"dynaq/internal/fleet"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// Config parameterizes a Core; a zero numeric field selects the default.
type Config struct {
	QueueDepth     int            // jobs waiting across all tenants; 0 selects 64
	TenantWeights  map[string]int // fair-queue burst size by tenant; unlisted tenants weigh 1
	TenantQuota    int            // one tenant's waiting jobs; 0 disables the cap
	TenantInflight int            // one tenant's dispatched cells; 0 disables the cap
	JobTimeout     time.Duration  // one job from dispatch to settlement; 0 disables it
	LeaseTTL       time.Duration  // a lease between heartbeats, and the worker liveness window; 0 selects 15s
	MaxAttempts    int            // one cell's runs before quarantine; 0 selects 3
	Backoff        fleet.Backoff  // the delay between attempts of a failed cell
	Version        string         // the build stamp reported in statuses and lease grants
	// CellDir maps a cache key to the artifact directory a done cell reports.
	CellDir func(key string) string
	// Clock stamps spans. Ops never read it: they take their instant as an
	// argument, so a caller decides exactly when time passes.
	Clock trace.Clock
	// EventsDropped is read at scrape time for dynaqd_events_dropped_total,
	// the one series whose state (the event streams) the shell owns.
	EventsDropped func() int64
}

// EffectKind names one thing the shell must do for the core.
type EffectKind int

// The effects, in the order a job's life produces them.
const (
	OpenStream        EffectKind = iota // Job was accepted: give it an event stream
	PersistRequest                      // write Job's request (Data) and queue marker (Marker, tenant as content); clear stale attempt counters
	Probe                               // Job is running with nothing dispatched: find which cells the cache holds and call Dispatch
	Publish                             // append Data to Job's event stream as cell Cell's line (-1: the job's own)
	PersistAttempts                     // write Job's attempt counters (Attempts; none: remove the file)
	PersistDeadLetter                   // write the quarantine list (Dead)
	PersistStatus                       // write Job's terminal Status
	WriteTrace                          // write Job's span log (Data) beside its status
	RemoveMarker                        // delete the queue marker named Marker
	CloseStream                         // Job is terminal: end its event stream
	Log                                 // emit Msg on the daemon log; Job is the job it names, if any
)

// Effect is one instruction to the shell. Which fields are set depends on
// Kind; maps and slices are snapshots the shell may keep.
type Effect struct {
	Kind     EffectKind
	Job      *Job
	Cell     int
	Data     []byte
	Marker   string
	Attempts map[string]int
	Dead     []fleet.DeadLetterEntry
	Status   JobStatus
	Msg      string
}

// runnable is one dispatchable cell paired with its owning job — the item
// type of the fair tree and of the in-flight set.
type runnable struct {
	j *Job
	c *Cell
}

// Core is the coordinator's state. It is not self-locking; the shell
// serializes every call.
type Core struct {
	cfg Config

	jobs      map[string]*Job
	seq       int  // last queue-marker sequence number issued
	accepting bool // false once Drain has begun
	admitting bool // true between Start and Drain

	// Admission: per-tenant job FIFOs behind quota and capacity, and the
	// one running job per tenant (a tenant's jobs start in order).
	jobq    *fairq.JobQueue[*Job]
	running map[string]*Job // by tenant

	// Dispatch: cells awaiting a lease or local claim in the fair tree, the
	// cells in flight by cache key (leased or local — one set, so a key two
	// tenants' jobs share never runs twice at once), live leases, recently
	// seen workers, the quarantine list.
	tree     *fairq.Tree[runnable]
	inflight map[string]runnable
	leases   *fleet.Table
	workers  map[string]time.Time
	dead     []fleet.DeadLetterEntry

	reg          *telemetry.Registry
	workerSeries map[string]bool // workers with a registered occupancy gauge
	tenantSeries map[string]bool // tenants with registered per-tenant series
	simTotals    map[string]int64
	scrapeAt     time.Time // the instant of the Metrics call being rendered
	out          []Effect  // effects of the op in progress

	jobsSubbed, jobsDeduped, jobsDone, jobsFailed    *telemetry.Counter
	cellsRun, cellsRemote, cacheHits, cacheMisses    *telemetry.Counter
	leaseGrants, leaseRenews, leaseExpiry            *telemetry.Counter
	cellRetries, quarantined                         *telemetry.Counter
	rejected                                         map[string]*telemetry.Counter
	hQueueWait, hLeaseDuration, hCellExecution, hE2E *telemetry.Histogram
}

// latencyBucketsMs is the shared fixed-bucket shape of the service latency
// histograms (milliseconds).
var latencyBucketsMs = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// New returns an empty core that accepts submissions and admits nothing
// until Start.
func New(cfg Config) *Core {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	c := &Core{
		cfg:          cfg,
		jobs:         make(map[string]*Job),
		accepting:    true,
		jobq:         fairq.NewJobQueue[*Job](cfg.QueueDepth, cfg.TenantQuota),
		running:      make(map[string]*Job),
		tree:         fairq.New[runnable](cfg.TenantWeights, cfg.TenantInflight),
		inflight:     make(map[string]runnable),
		leases:       fleet.NewTable(),
		workers:      make(map[string]time.Time),
		reg:          telemetry.NewRegistry(),
		workerSeries: make(map[string]bool),
		tenantSeries: make(map[string]bool),
		simTotals:    make(map[string]int64),
		rejected:     make(map[string]*telemetry.Counter),
	}
	c.registerMetrics()
	return c
}

func (c *Core) registerMetrics() {
	for _, m := range []struct {
		counter    **telemetry.Counter
		name, help string
	}{
		{&c.jobsSubbed, "dynaqd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs."},
		{&c.jobsDeduped, "dynaqd_jobs_deduped_total", "Submissions coalesced onto an in-flight or finished job."},
		{&c.jobsDone, "dynaqd_jobs_completed_total", "Jobs that reached the done state."},
		{&c.jobsFailed, "dynaqd_jobs_failed_total", "Jobs that reached the failed state."},
		{&c.cellsRun, "dynaqd_cells_completed_total", "Cells executed to completion (local or remote)."},
		{&c.cellsRemote, "dynaqd_cells_remote_total", "Cells completed by fleet workers."},
		{&c.cacheHits, "dynaqd_cache_hits_total", "Cells served from the content-addressed cache."},
		{&c.cacheMisses, "dynaqd_cache_misses_total", "Cells that required a fresh run."},
		{&c.leaseGrants, "dynaqd_leases_granted_total", "Cell leases granted to fleet workers."},
		{&c.leaseRenews, "dynaqd_leases_renewed_total", "Lease heartbeats accepted."},
		{&c.leaseExpiry, "dynaqd_leases_expired_total", "Leases expired for missed heartbeats."},
		{&c.cellRetries, "dynaqd_cell_retries_total", "Failed cell attempts requeued with backoff."},
		{&c.quarantined, "dynaqd_deadletter_total", "Cells quarantined after exhausting their attempt budget."},
	} {
		*m.counter = c.reg.Counter(m.name)
		c.reg.SetHelp(m.name, m.help)
	}
	for _, m := range []struct {
		hist       **telemetry.Histogram
		name, help string
	}{
		{&c.hQueueWait, "dynaqd_job_queue_wait_ms", "Wall time jobs spend queued before dispatch."},
		{&c.hLeaseDuration, "dynaqd_lease_duration_ms", "Wall time from lease grant/claim to settlement or expiry."},
		{&c.hCellExecution, "dynaqd_cell_execution_ms", "Wall time of successful cell executions."},
		{&c.hE2E, "dynaqd_job_e2e_ms", "Wall time from job accept to terminal state."},
	} {
		*m.hist = c.reg.Histogram(m.name, latencyBucketsMs)
		c.reg.SetHelp(m.name, m.help)
	}
	for _, reason := range []string{"draining", "invalid", "queue_full", "tenant_quota"} {
		c.rejected[reason] = c.reg.Counter("dynaqd_jobs_rejected_total", telemetry.L("reason", reason))
	}
	for name, help := range map[string]string{
		"dynaqd_jobs_rejected_total":   "Submissions rejected, by reason.",
		"dynaqd_events_dropped_total":  "Event-stream lines dropped on stalled subscribers.",
		"dynaqd_queue_depth":           "Jobs waiting in the FIFO queue.",
		"dynaqd_jobs_running":          "Jobs currently executing.",
		"dynaqd_workers_active":        "Fleet workers seen within the liveness window.",
		"dynaqd_leases_live":           "Leases currently held by workers.",
		"dynaqd_deadletter_size":       "Cells currently quarantined.",
		"dynaqd_tenant_queue_depth":    "Jobs waiting in one tenant's fair-queue leaf.",
		"dynaqd_tenant_cells_queued":   "Cells awaiting dispatch in one tenant's fair-queue leaf.",
		"dynaqd_tenant_inflight":       "One tenant's cells currently dispatched (leased or local).",
		"dynaqd_tenant_dispatch_total": "Cells dispatched (lease grants plus local claims), by tenant.",
		"dynaqd_tenant_queue_wait_ms":  "Wall time jobs spend queued before dispatch, by tenant.",
	} {
		c.reg.SetHelp(name, help)
	}
	c.reg.Gauge("dynaqd_build_info", telemetry.L("version", c.cfg.Version)).Set(1)
	c.reg.GaugeFunc("dynaqd_queue_depth", func() int64 { return int64(c.jobq.Len()) })
	c.reg.GaugeFunc("dynaqd_jobs_running", func() int64 { return int64(len(c.running)) })
	c.reg.GaugeFunc("dynaqd_workers_active", func() int64 { return int64(c.activeWorkers(c.scrapeAt)) })
	c.reg.GaugeFunc("dynaqd_leases_live", func() int64 { return int64(c.leases.Len()) })
	c.reg.GaugeFunc("dynaqd_deadletter_size", func() int64 { return int64(len(c.dead)) })
	c.reg.CounterFunc("dynaqd_events_dropped_total", c.cfg.EventsDropped)
}

// ensureTenantMetrics registers tenant's series on first sight; like the
// per-worker gauges they then live for the daemon's lifetime.
func (c *Core) ensureTenantMetrics(tenant string) {
	if c.tenantSeries[tenant] {
		return
	}
	c.tenantSeries[tenant] = true
	label := telemetry.L("tenant", tenant)
	c.reg.GaugeFunc("dynaqd_tenant_queue_depth", func() int64 { return int64(c.jobq.Depth(tenant)) }, label)
	c.reg.GaugeFunc("dynaqd_tenant_cells_queued", func() int64 { return int64(c.tree.Depth(tenant)) }, label)
	c.reg.GaugeFunc("dynaqd_tenant_inflight", func() int64 { return int64(c.tree.Inflight(tenant)) }, label)
	// Touched so the full set renders from first sight, not first event.
	c.reg.Counter("dynaqd_tenant_dispatch_total", label)
	c.reg.Histogram("dynaqd_tenant_queue_wait_ms", latencyBucketsMs, label)
}

// activeWorkers counts workers seen within the liveness window.
func (c *Core) activeWorkers(now time.Time) int {
	n := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= c.cfg.LeaseTTL {
			n++
		}
	}
	return n
}

// --- read-only views -------------------------------------------------------

// Job returns the job registered under id.
func (c *Core) Job(id string) (*Job, bool) {
	j, ok := c.jobs[id]
	return j, ok
}

// Status snapshots one job for the wire.
func (c *Core) Status(id string) (JobStatus, bool) {
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.status(j), true
}

// List snapshots every job, sorted by id.
func (c *Core) List() []JobStatus {
	out := make([]JobStatus, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, c.status(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// DeadLetter returns a copy of the quarantine list.
func (c *Core) DeadLetter() []fleet.DeadLetterEntry {
	return append([]fleet.DeadLetterEntry(nil), c.dead...)
}

// Health is the coordinator's vital signs.
type Health struct {
	Accepting                                        bool
	QueueDepth, Running, Workers, Leases, DeadLetter int
}

// Health reports the vital signs at now.
func (c *Core) Health(now time.Time) Health {
	return Health{Accepting: c.accepting, QueueDepth: c.jobq.Len(), Running: len(c.running),
		Workers: c.activeWorkers(now), Leases: c.leases.Len(), DeadLetter: len(c.dead)}
}

// Metrics renders the registry plus the sim totals absorbed from locally
// run cells, in Prometheus text format, as of now.
func (c *Core) Metrics(now time.Time) ([]byte, error) {
	c.scrapeAt = now
	var buf bytes.Buffer
	if err := c.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(c.simTotals))
	for id := range c.simTotals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		buf.WriteString(id + " " + strconv.FormatInt(c.simTotals[id], 10) + "\n")
	}
	return buf.Bytes(), nil
}

// Reject counts a submission the shell refused before it reached Submit.
func (c *Core) Reject(reason string) { c.rejected[reason].Inc() }

// Drained reports that Drain has begun and no job is running: every job is
// terminal, or queued with its marker on disk.
func (c *Core) Drained() bool { return !c.accepting && len(c.running) == 0 }

// LeaseKey resolves a live lease to the cache key of its cell ("" if it is
// not live), so the shell can check the cache for exactly that artifact
// before calling Complete.
func (c *Core) LeaseKey(leaseID string) string {
	if l, ok := c.leases.Get(leaseID); ok {
		return l.Key
	}
	return ""
}

// NextDeadline is the earliest instant after now at which Tick has work: a
// lease lapses, a worker's liveness window closes (the local pool may have
// to take over), a backoff elapses, a job's deadline passes. What was due
// by now the Tick at now has handled.
func (c *Core) NextDeadline(now time.Time) (next time.Time, found bool) {
	consider := func(at time.Time, ok bool) {
		if ok && at.After(now) && (!found || at.Before(next)) {
			next, found = at, true
		}
	}
	consider(c.leases.NextExpiry())
	consider(c.tree.NextAt())
	for _, seen := range c.workers {
		consider(seen.Add(c.cfg.LeaseTTL+1), true)
	}
	for _, j := range c.running {
		consider(j.deadline, j.ending == "" && !j.deadline.IsZero())
	}
	return next, found
}
