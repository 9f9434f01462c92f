package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"dynaq/internal/buffer"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// Job states. A job is terminal in StateDone or StateFailed; StateQueued
// jobs survive a daemon restart (their request bytes and queue position are
// persisted at submit time).
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Cell-only states. A leased cell is held by a fleet worker under a
// time-boxed lease; a quarantined cell exhausted its attempt budget and
// sits on the dead-letter list until an operator requeues its job.
const (
	StateLeased      = "leased"
	StateQuarantined = "quarantined"
)

// maxCellsPerJob bounds the sweep fan-out of one submission so a single
// request cannot enqueue unbounded work.
const maxCellsPerJob = 256

// DefaultTenant is the fair-queue leaf that untagged submissions land in.
// A deployment that never sets a tenant runs entirely in this leaf, where
// the weighted rotation degenerates to the plain FIFO it replaced.
const DefaultTenant = "default"

// maxTenantLen bounds tenant names; they appear in metric labels, trace
// attributes, and queue-marker files.
const maxTenantLen = 64

// validTenant reports whether name is a usable tenant identity: 1-64 runes
// from [A-Za-z0-9._-], the same alphabet trace IDs allow.
func validTenant(name string) bool {
	if name == "" || len(name) > maxTenantLen {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Request is the POST /v1/jobs body: either a bare scenario document
// (exactly what dynaqsim -config accepts) or a wrapper that fans one
// scenario out into a (scheme, seed) sweep — every combination becomes one
// independently cached cell. Tenant names the fair-queue leaf the job
// queues under; the X-Dynaq-Tenant request header overrides it and both
// default to DefaultTenant.
type Request struct {
	Scenario json.RawMessage `json:"scenario"`
	Schemes  []string        `json:"schemes,omitempty"`
	Seeds    []int64         `json:"seeds,omitempty"`
	Tenant   string          `json:"tenant,omitempty"`
}

// parseRequest decodes a POST body. A body that does not strictly match the
// wrapper shape is treated as a bare scenario document; its own scheme and
// seed fields then define the job's single cell.
func parseRequest(body []byte) Request {
	var req Request
	if err := strictUnmarshal(body, &req); err == nil && req.Scenario != nil {
		return req
	}
	return Request{Scenario: body}
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected, so a bare
// scenario document (whose fields the wrapper does not know) falls through
// to bare-mode parsing instead of silently losing its content.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Cell is one (scenario, scheme, seed) unit of work: the granularity of
// both execution (one trial in the job's RunTrialsCtx pool) and caching
// (one content-addressed artifact directory).
type Cell struct {
	Index    int
	Scheme   string
	Seed     int64
	Key      string // content address: CacheKey(version, scenario hash, scheme, engine, seed)
	State    string
	CacheHit bool
	Dir      string // artifact directory once done
	Err      string
	Attempts int    // failed attempts charged so far (persisted across restarts)
	Worker   string // last worker to touch the cell ("local" for the fallback pool)

	// span is the wall-time span of the cell attempt currently in flight
	// (nil between attempts or when the job carries no trace); leasedAt is
	// when that attempt was granted/claimed. Both are accessed under s.mu
	// except by the local executor that owns the running attempt.
	span     *trace.SpanRef
	leasedAt time.Time

	// acquired marks a cell popped from the fair-queue tree whose tenant
	// in-flight slot has not been released yet; accessed under s.mu.
	acquired bool
}

// Job is one submission: a scenario body plus its expanded cells.
type Job struct {
	ID           string
	State        string
	Err          string
	Tenant       string // fair-queue leaf; DefaultTenant when untagged
	Scenario     []byte // raw scenario document (cells apply overrides out-of-band)
	ScenarioHash string
	CacheHit     bool // terminal: every cell was served from cache
	Cells        []*Cell

	bc   *broadcaster
	done chan struct{} // closed on terminal state

	// Fair-queue dispatch state while the job is active. outstanding counts
	// unsettled cells, localActive counts local-pool executions in flight,
	// and finalizing stops further dispatch while dispatchCells settles the
	// job; all three are accessed under s.mu. change is a buffered-1 nudge
	// the dispatcher waits on — anyone who moves outstanding or localActive
	// sends on it (created per dispatch, never closed).
	// runCtx is the dispatch context (job timeout); the fair-queue
	// eligibility check skips cells of a job whose context has expired so
	// a timed-out job never dispatches more work.
	outstanding int
	localActive int
	finalizing  bool
	change      chan struct{}
	runCtx      context.Context

	// tr collects the job's spans; rootSpan/queueSpan are the job and
	// queue-wait spans, queuedAt the accept time. All are set once before
	// the job is enqueued (nil tr for jobs recovered terminal, whose trace
	// is served from the persisted trace.jsonl) and never reassigned, so
	// reads need no lock; the tracer itself is internally synchronized.
	tr        *trace.Tracer
	rootSpan  *trace.SpanRef
	queueSpan *trace.SpanRef
	queuedAt  time.Time
}

// buildJob validates a request and expands its cells under the given build
// version. Validation errors are *scenario.ValidationError, mapped to HTTP
// 400 by the submit handler.
func buildJob(req Request, version string) (*Job, error) {
	for i, scheme := range req.Schemes {
		// Each cell loads the document with its scheme swapped in; refuse
		// an unknown one here, not on the worker that leases the cell.
		if _, err := buffer.LookupScheme(scheme); err != nil {
			return nil, &scenario.ValidationError{Field: fmt.Sprintf("schemes[%d]", i), Msg: err.Error()}
		}
	}
	var ov scenario.Overrides
	if len(req.Schemes) > 0 {
		// A sweep never runs the document's own scheme, so do not hold the
		// document to naming one.
		ov.Scheme = req.Schemes[0]
	}
	base, err := scenario.LoadWith(req.Scenario, ov)
	if err != nil {
		return nil, err
	}
	schemes := req.Schemes
	if len(schemes) == 0 {
		schemes = []string{base.Scheme()}
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []int64{base.Seed()}
	}
	if len(schemes)*len(seeds) > maxCellsPerJob {
		return nil, &scenario.ValidationError{
			Field: "schemes",
			Msg:   fmt.Sprintf("%d×%d cells exceed the per-job limit of %d", len(schemes), len(seeds), maxCellsPerJob),
		}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !validTenant(tenant) {
		return nil, &scenario.ValidationError{
			Field: "tenant",
			Msg:   fmt.Sprintf("tenant %q must be 1-%d characters from [A-Za-z0-9._-]", tenant, maxTenantLen),
		}
	}
	hash := telemetry.Hash(req.Scenario)
	j := &Job{
		ID:           "", // filled below, over the expanded cells
		State:        StateQueued,
		Tenant:       tenant,
		Scenario:     req.Scenario,
		ScenarioHash: hash,
		bc:           newBroadcaster(),
		done:         make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, scheme := range schemes {
		for _, seed := range seeds {
			key := CacheKey(version, hash, scheme, base.Engine(), seed)
			if seen[key] {
				continue
			}
			seen[key] = true
			j.Cells = append(j.Cells, &Cell{
				Index:  len(j.Cells),
				Scheme: scheme,
				Seed:   seed,
				Key:    key,
				State:  StateQueued,
			})
		}
	}
	j.ID = jobID(tenant, hash, j.Cells)
	return j, nil
}

// jobID derives the job's identity from its content: the scenario hash plus
// the expanded (scheme, seed) cells. Resubmitting the same work yields the
// same id, which is what lets the daemon dedupe in-flight duplicates and
// turn resubmissions of finished work into cache hits. The build version is
// deliberately excluded — a job keeps its handle across daemon upgrades,
// while its cells' cache keys (which do include the version) force a
// re-run. A non-default tenant is folded in so tenants get isolated job
// handles; the default tenant contributes nothing, keeping single-tenant
// job IDs byte-identical to the pre-tenancy daemon. Cache keys never see
// the tenant — identical work shares artifacts across tenants.
func jobID(tenant, scenarioHash string, cells []*Cell) string {
	b := []byte("dynaqd-job\nscenario=" + scenarioHash + "\n")
	if tenant != DefaultTenant {
		b = append(b, "tenant="...)
		b = append(b, tenant...)
		b = append(b, '\n')
	}
	for _, c := range cells {
		b = append(b, "cell="...)
		b = append(b, c.Scheme...)
		b = append(b, '/')
		b = strconv.AppendInt(b, c.Seed, 10)
		b = append(b, '\n')
	}
	return telemetry.Hash(b)[:16]
}

// CellStatus is the wire form of one cell in GET /v1/jobs/{id}.
type CellStatus struct {
	Index       int    `json:"index"`
	Scheme      string `json:"scheme"`
	Seed        int64  `json:"seed"`
	CacheKey    string `json:"cache_key"`
	State       string `json:"state"`
	CacheHit    bool   `json:"cache_hit"`
	ArtifactDir string `json:"artifact_dir,omitempty"`
	Error       string `json:"error,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	Worker      string `json:"worker,omitempty"`
}

// JobStatus is the wire form of GET /v1/jobs/{id} and the terminal state
// persisted as status.json.
type JobStatus struct {
	ID           string       `json:"id"`
	State        string       `json:"state"`
	Tenant       string       `json:"tenant,omitempty"`
	ScenarioHash string       `json:"scenario_hash"`
	Version      string       `json:"version"`
	CacheHit     bool         `json:"cache_hit"`
	Error        string       `json:"error,omitempty"`
	Cells        []CellStatus `json:"cells"`
}

// statusLocked snapshots a job for the wire; the caller holds s.mu.
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:           j.ID,
		State:        j.State,
		Tenant:       j.Tenant,
		ScenarioHash: j.ScenarioHash,
		Version:      s.cfg.Version,
		CacheHit:     j.CacheHit,
		Error:        j.Err,
		Cells:        make([]CellStatus, 0, len(j.Cells)),
	}
	for _, c := range j.Cells {
		st.Cells = append(st.Cells, CellStatus{
			Index:       c.Index,
			Scheme:      c.Scheme,
			Seed:        c.Seed,
			CacheKey:    c.Key,
			State:       c.State,
			CacheHit:    c.CacheHit,
			ArtifactDir: c.Dir,
			Error:       c.Err,
			Attempts:    c.Attempts,
			Worker:      c.Worker,
		})
	}
	return st
}

// jobFromStatus rebuilds a terminal job from its persisted status.json —
// enough for GET and events replay across a daemon restart. The scenario
// bytes are not reloaded; a resubmission re-parses the request body.
func jobFromStatus(st JobStatus) *Job {
	tenant := st.Tenant
	if tenant == "" {
		tenant = DefaultTenant // status persisted before tenancy existed
	}
	j := &Job{
		ID:           st.ID,
		State:        st.State,
		Err:          st.Error,
		Tenant:       tenant,
		ScenarioHash: st.ScenarioHash,
		CacheHit:     st.CacheHit,
		bc:           newBroadcaster(),
		done:         make(chan struct{}),
	}
	for _, cs := range st.Cells {
		j.Cells = append(j.Cells, &Cell{
			Index:    cs.Index,
			Scheme:   cs.Scheme,
			Seed:     cs.Seed,
			Key:      cs.CacheKey,
			State:    cs.State,
			CacheHit: cs.CacheHit,
			Dir:      cs.ArtifactDir,
			Err:      cs.Error,
			Attempts: cs.Attempts,
			Worker:   cs.Worker,
		})
	}
	j.bc.close()
	close(j.done)
	return j
}

// terminal reports whether a job state is final.
func terminal(state string) bool { return state == StateDone || state == StateFailed }
