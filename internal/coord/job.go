package coord

import (
	"strconv"
	"time"

	"dynaq/internal/telemetry/trace"
)

// Job states. StateDone and StateFailed are terminal; a StateQueued job
// survives a restart (request and queue position are persisted at submit).
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

// DefaultTenant is the fair-queue leaf of untagged submissions. A
// deployment that never sets a tenant runs in it alone, as a plain FIFO.
const DefaultTenant = "default"

// Cell is one (scenario, scheme, seed) unit of work: the granularity of
// both execution and caching (one content-addressed artifact directory).
type Cell struct {
	Index    int
	Scheme   string
	Seed     int64
	Key      string // content address of the artifact
	State    string
	CacheHit bool
	Dir      string // artifact directory once done
	Err      string
	Attempts int    // failed attempts charged so far (persisted across restarts)
	Worker   string // last worker to touch the cell ("local" for the fallback pool)

	// span is the attempt in flight (nil between attempts), leasedAt when
	// it was granted or claimed, local whether it runs on the coordinator's
	// own pool rather than under a lease.
	span     *trace.SpanRef
	leasedAt time.Time
	local    bool
}

// AttemptKey identifies a cell across restarts and version bumps: cells are
// re-expanded under the current build on recovery.
func (c *Cell) AttemptKey() string { return c.Scheme + "/" + strconv.FormatInt(c.Seed, 10) }

// Why a running job stops before its cells have all settled.
const (
	endDrain   = "drain"
	endTimeout = "timeout"
)

// Job is one submission: a scenario body plus its expanded cells. The shell
// builds it (validation and expansion need the scenario loader) and hands it
// to Submit, Requeue or Recover; from then on only the core writes to it.
type Job struct {
	ID           string
	State        string
	Err          string
	Tenant       string // fair-queue leaf; DefaultTenant when untagged
	Scenario     []byte // raw scenario document (cells apply overrides out-of-band)
	ScenarioHash string
	CacheHit     bool // terminal: every cell was served from cache
	Cells        []*Cell

	// Marker is the queue-marker file name while the job is pending:
	// assigned by Submit and Requeue, supplied by the shell on Recover.
	Marker string

	// While the job runs: dispatched says its cells are in the fair tree,
	// outstanding counts unsettled cells, localActive those on the local
	// pool, ending why no further cell may start, deadline when
	// Config.JobTimeout ends it (zero without one).
	dispatched  bool
	outstanding int
	localActive int
	ending      string
	deadline    time.Time

	// recovered is the status of a job recovered terminal, which is all
	// there is of it: no cells, and no tracer (its trace is on disk). tr
	// collects a live job's spans; queuedAt is its accept time.
	recovered *JobStatus
	tr        *trace.Tracer
	rootSpan  *trace.SpanRef
	queueSpan *trace.SpanRef
	queuedAt  time.Time
}

// TraceID reports the id of the job's trace ("" if recovered terminal).
// Safe without the shell's lock: the tracer is set before the job is
// published and synchronizes itself.
func (j *Job) TraceID() string { return j.tr.TraceID() }

// TraceJSONL renders the spans so far (nil if recovered terminal); safe
// without the shell's lock, like TraceID.
func (j *Job) TraceJSONL() []byte {
	if j.tr == nil {
		return nil
	}
	return j.tr.JSONL()
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

// Terminal reports whether a job state is final.
func Terminal(state string) bool { return state == StateDone || state == StateFailed }

// status snapshots a job for the wire.
func (c *Core) status(j *Job) JobStatus {
	if j.recovered != nil {
		return *j.recovered
	}
	st := JobStatus{
		ID:           j.ID,
		State:        j.State,
		Tenant:       j.Tenant,
		ScenarioHash: j.ScenarioHash,
		Version:      c.cfg.Version,
		CacheHit:     j.CacheHit,
		Error:        j.Err,
		Cells:        make([]CellStatus, 0, len(j.Cells)),
	}
	for _, cell := range j.Cells {
		st.Cells = append(st.Cells, CellStatus{
			Index:       cell.Index,
			Scheme:      cell.Scheme,
			Seed:        cell.Seed,
			CacheKey:    cell.Key,
			State:       cell.State,
			CacheHit:    cell.CacheHit,
			ArtifactDir: cell.Dir,
			Error:       cell.Err,
			Attempts:    cell.Attempts,
			Worker:      cell.Worker,
		})
	}
	return st
}

// jobFromStatus makes a terminal job of its persisted status — enough for
// GET and events replay; a resubmission re-parses the request. The status is
// served as persisted, under the current build's version.
func jobFromStatus(st JobStatus, version string) *Job {
	if st.Tenant == "" {
		st.Tenant = DefaultTenant // persisted before tenancy existed
	}
	st.Version = version
	return &Job{ID: st.ID, State: st.State, Tenant: st.Tenant, recovered: &st}
}
