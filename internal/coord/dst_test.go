package coord

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaq/internal/fleet"
	"dynaq/internal/telemetry/trace"
)

// Deterministic simulation of the core. A world is the core plus models of
// everything around it — the disk the shell would write, the cache, the
// event streams, a fleet of workers holding (possibly stale) grants, and
// local executors holding claims. A seed generates a list of ops; run
// executes them one at a time, applies each op's effects to the models the
// way the shell would, and checks the invariants below after every op.
// Because an op is a value (kind plus small integers resolved against
// whatever the world holds when it runs), a failing list stays meaningful
// with ops removed, which is what lets shrink reduce it to a literal that
// TestDSTRegressions replays.

var (
	dstSeeds = flag.Int("dst-seeds", 2000, "how many seeded op sequences TestDST runs")
	dstOps   = flag.Int("dst-ops", 300, "ops per sequence")
)

const (
	dstTTL      = 8 * time.Second
	dstKeys     = 10 // cache keys in the universe; jobs share them, across tenants too
	dstSpecs    = 12 // distinct submittable jobs
	dstVersion  = "dst"
	dstMaxCells = 6
)

type opKind int

const (
	opStart opKind = iota
	opSubmit
	opLease
	opHeartbeat
	opComplete
	opClaim
	opLocalDone
	opAdvance
	opTick
	opRequeue
	opRestart
	opKinds
)

var opNames = [...]string{"opStart", "opSubmit", "opLease", "opHeartbeat", "opComplete", "opClaim",
	"opLocalDone", "opAdvance", "opTick", "opRequeue", "opRestart"}

// dstOp is one step. A and B select among whatever the world holds when the
// op runs (modulo its size), so an op means something in any context. Crash,
// when non-zero, kills the daemon part-way through applying the op's
// effects: recovery is checked after every prefix, and the run continues in
// the life recovered from prefix Crash-1 (modulo the effect count + 1).
type dstOp struct {
	Kind  opKind
	A, B  int
	Crash int
}

func (o dstOp) String() string {
	return fmt.Sprintf("{%s, %d, %d, %d}", opNames[o.Kind], o.A, o.B, o.Crash)
}

// dstConfig shapes one run; configFor derives it from the seed alone, so a
// seed and an op list replay a failure.
type dstConfig struct {
	Seed        int64
	Tenants     int
	Workers     int // 0 exercises the local fallback only
	QueueDepth  int
	Quota       int
	Inflight    int
	MaxAttempts int
	JobTimeout  time.Duration
	Weights     map[string]int
}

func configFor(seed int64) dstConfig {
	rng := rand.New(rand.NewSource(seed))
	cfg := dstConfig{
		Seed:        seed,
		Tenants:     1 + rng.Intn(4),
		Workers:     rng.Intn(4),
		QueueDepth:  2 + rng.Intn(6),
		Quota:       rng.Intn(4), // 0: no quota
		Inflight:    rng.Intn(4), // 0: no cap
		MaxAttempts: 1 + rng.Intn(3),
		Weights:     map[string]int{},
	}
	if rng.Intn(2) == 0 {
		cfg.JobTimeout = 3 * dstTTL
	}
	for t := 0; t < cfg.Tenants; t++ {
		if w := rng.Intn(3); w > 0 {
			cfg.Weights[tenantName(t)] = w + 1
		}
	}
	return cfg
}

func tenantName(t int) string { return "t" + strconv.Itoa(t) }

// genOps draws n ops. Tenant 0 floods: most submissions are its specs, the
// other tenants trickle. Crashes are rare so lives are long enough to get
// into trouble.
func genOps(seed int64, n int) []dstOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	weights := []struct {
		k opKind
		w int
	}{
		{opStart, 1}, {opSubmit, 10}, {opLease, 14}, {opHeartbeat, 4}, {opComplete, 14},
		{opClaim, 8}, {opLocalDone, 8}, {opAdvance, 8}, {opTick, 3}, {opRequeue, 2}, {opRestart, 1},
	}
	total := 0
	for _, w := range weights {
		total += w.w
	}
	ops := make([]dstOp, 0, n+1)
	ops = append(ops, dstOp{Kind: opStart})
	for len(ops) < n {
		pick := rng.Intn(total)
		var kind opKind
		for _, w := range weights {
			if pick < w.w {
				kind = w.k
				break
			}
			pick -= w.w
		}
		op := dstOp{Kind: kind, A: rng.Intn(64), B: rng.Intn(64)}
		if rng.Intn(40) == 0 {
			op.Crash = 1 + rng.Intn(16)
		}
		ops = append(ops, op)
	}
	return ops
}

// spec is one submittable job: a tenant and the cache keys of its cells.
type spec struct {
	tenant string
	keys   []string
}

func (s spec) id(i int) string { return fmt.Sprintf("job-%02d-%s", i, s.tenant) }

// specsFor builds the universe of jobs for a config. Keys are consecutive
// modulo dstKeys, so a job's cells are distinct and jobs overlap.
func specsFor(cfg dstConfig) []spec {
	specs := make([]spec, dstSpecs)
	for i := range specs {
		tenant := 0
		if i%3 == 2 { // a third of the specs belong to the trickling tenants
			tenant = (i / 3) % cfg.Tenants
		}
		n := 1 + int((cfg.Seed+int64(i)*7)%dstMaxCells)
		if n < 1 {
			n += dstMaxCells
		}
		keys := make([]string, n)
		for c := range keys {
			keys[c] = fmt.Sprintf("key-%04d", (i*3+c)%dstKeys)
		}
		specs[i] = spec{tenant: tenantName(tenant), keys: keys}
	}
	return specs
}

// build expands spec i into a fresh job, the shell's buildJob.
func (s spec) build(i int) *Job {
	j := &Job{ID: s.id(i), State: StateQueued, Tenant: s.tenant, Scenario: []byte("{}"), ScenarioHash: "hash"}
	for c, key := range s.keys {
		j.Cells = append(j.Cells, &Cell{Index: c, Scheme: "S", Seed: int64(c), Key: key, State: StateQueued})
	}
	return j
}

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

// disk models what the shell persists.
type disk struct {
	requests map[string]int            // job id → spec index (request.json)
	markers  map[string]string         // marker name → job id (queue/)
	attempts map[string]map[string]int // job id → attempts.json
	statuses map[string]JobStatus      // job id → status.json
	dead     []fleet.DeadLetterEntry   // deadletter.json
}

func newDisk() *disk {
	return &disk{requests: map[string]int{}, markers: map[string]string{},
		attempts: map[string]map[string]int{}, statuses: map[string]JobStatus{}}
}

func (d *disk) clone() *disk {
	c := newDisk()
	for k, v := range d.requests {
		c.requests[k] = v
	}
	for k, v := range d.markers {
		c.markers[k] = v
	}
	for k, v := range d.attempts {
		c.attempts[k] = v // values are never mutated after they are stored
	}
	for k, v := range d.statuses {
		c.statuses[k] = v
	}
	c.dead = append([]fleet.DeadLetterEntry(nil), d.dead...)
	return c
}

// apply carries out one persistence effect; anything else is not the disk's.
func (d *disk) apply(e Effect, specOf func(*Job) int) error {
	switch e.Kind {
	case PersistRequest:
		if _, dup := d.markers[e.Marker]; dup {
			return fmt.Errorf("marker %s written twice", e.Marker)
		}
		for name := range d.markers {
			if name >= e.Marker {
				return fmt.Errorf("marker %s does not sort after existing %s: FIFO position lost", e.Marker, name)
			}
		}
		d.requests[e.Job.ID] = specOf(e.Job)
		delete(d.attempts, e.Job.ID)
		d.markers[e.Marker] = e.Job.ID
	case PersistAttempts:
		if len(e.Attempts) == 0 {
			delete(d.attempts, e.Job.ID)
		} else {
			d.attempts[e.Job.ID] = e.Attempts
		}
	case PersistDeadLetter:
		d.dead = e.Dead
	case PersistStatus:
		if !Terminal(e.Status.State) {
			return fmt.Errorf("status of job %s persisted in state %s", e.Status.ID, e.Status.State)
		}
		d.statuses[e.Status.ID] = e.Status
	case RemoveMarker:
		if _, ok := d.markers[e.Marker]; !ok {
			return fmt.Errorf("removing marker %q, which is not on disk", e.Marker)
		}
		delete(d.markers, e.Marker)
	}
	return nil
}

// grant is a lease a worker believes it holds.
type grant struct {
	id, key, worker string
}

// cellTrack is what the world remembers of one cell of one accepted job to
// check it settles exactly once.
type cellTrack struct {
	done, quarantined int
}

type world struct {
	cfg   dstConfig
	specs []spec
	clock *fakeClock
	core  *Core
	disk  *disk
	cache map[string]bool

	streams map[*Job]string // "open" or "closed"
	specIdx map[*Job]int
	cells   map[*Cell]*cellTrack
	fifo    map[string][]*Job // per tenant: accepted jobs that have not started, in order
	started bool              // Start has been called in this life

	grants []grant       // held by workers, live or stale
	claims []*LocalClaim // held by local executors

	jobLogs []string // every log line that named a job, across lives

	// For the starvation bound: when each queued cell becomes ready, what
	// each cell and job looked like before the op, and how many pops have
	// passed each tenant over while it had a cell to serve.
	readyAt  map[*Cell]time.Time
	prevCell map[*Cell]cellSnap
	prevDisp map[*Job]bool
	starved  map[string]int

	lives int
}

type cellSnap struct {
	state    string
	attempts int
}

func newWorld(cfg dstConfig) *world {
	w := &world{
		cfg:   cfg,
		specs: specsFor(cfg),
		clock: &fakeClock{now: time.Unix(1_700_000_000, 0)},
		disk:  newDisk(),
		cache: map[string]bool{},
	}
	w.boot(w.disk)
	return w
}

func (w *world) coreConfig() Config {
	return Config{
		QueueDepth:     w.cfg.QueueDepth,
		TenantWeights:  w.cfg.Weights,
		TenantQuota:    w.cfg.Quota,
		TenantInflight: w.cfg.Inflight,
		JobTimeout:     w.cfg.JobTimeout,
		LeaseTTL:       dstTTL,
		MaxAttempts:    w.cfg.MaxAttempts,
		Backoff:        fleet.Backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second},
		Version:        dstVersion,
		CellDir:        func(key string) string { return "/cache/" + key },
		Clock:          w.clock,
		EventsDropped:  func() int64 { return 0 },
	}
}

// boot starts a daemon life over d: a fresh core recovered from what is on
// disk, the way the shell's New does it. Local executors died with the old
// process; workers live on with whatever grants they held.
func (w *world) boot(d *disk) error {
	w.lives++
	w.disk = d
	w.core = New(w.coreConfig())
	w.streams = map[*Job]string{}
	w.specIdx = map[*Job]int{}
	w.cells = map[*Cell]*cellTrack{}
	w.fifo = map[string][]*Job{}
	w.started = false
	w.claims = nil
	w.readyAt = map[*Cell]time.Time{}
	w.prevCell = map[*Cell]cellSnap{}
	w.prevDisp = map[*Job]bool{}
	w.starved = map[string]int{}

	snap := w.snapshot(d)
	for _, j := range snap.Queued {
		w.track(j)
	}
	effs := w.core.Recover(w.clock.now, snap)
	if _, err := w.applyAll(effs, -1); err != nil {
		return err
	}
	return w.checkRecovered(d)
}

// snapshot reads a disk the way the shell's loadSnapshot does.
func (w *world) snapshot(d *disk) Snapshot {
	snap := Snapshot{Dead: append([]fleet.DeadLetterEntry(nil), d.dead...)}
	ids := make([]string, 0, len(d.statuses))
	for id := range d.statuses {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Terminal = append(snap.Terminal, d.statuses[id])
	}
	for name := range d.markers {
		snap.Markers = append(snap.Markers, name)
	}
	sort.Strings(snap.Markers)
	for _, name := range snap.Markers {
		id := d.markers[name]
		i := d.requests[id]
		j := w.specs[i].build(i)
		j.Marker = name
		for _, cell := range j.Cells {
			cell.Attempts = d.attempts[id][cell.AttemptKey()]
		}
		w.specIdx[j] = i
		snap.Queued = append(snap.Queued, j)
	}
	return snap
}

// track registers a job the core is about to own.
func (w *world) track(j *Job) {
	for _, cell := range j.Cells {
		w.cells[cell] = &cellTrack{}
	}
	w.fifo[j.Tenant] = append(w.fifo[j.Tenant], j)
}

// checkRecovered: every marker on disk is a queued job of the new life, in
// marker order within its tenant, with its attempts restored; nothing else
// is queued; the quarantine list came back.
func (w *world) checkRecovered(d *disk) error {
	names := make([]string, 0, len(d.markers))
	for name := range d.markers {
		names = append(names, name)
	}
	sort.Strings(names)
	perTenant := map[string][]string{}
	for _, name := range names {
		id := d.markers[name]
		j, ok := w.core.jobs[id]
		if !ok || j.State != StateQueued || j.Marker != name {
			return fmt.Errorf("recovery: marker %s names job %s, which the new life does not hold queued under it", name, id)
		}
		perTenant[j.Tenant] = append(perTenant[j.Tenant], id)
		for _, cell := range j.Cells {
			if cell.Attempts != d.attempts[id][cell.AttemptKey()] {
				return fmt.Errorf("recovery: job %s cell %d has %d attempts, disk says %d", id, cell.Index, cell.Attempts, d.attempts[id][cell.AttemptKey()])
			}
		}
	}
	for tenant, want := range perTenant {
		var got []string
		for _, j := range w.fifo[tenant] {
			got = append(got, j.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("recovery: tenant %s queue is %v, markers say %v", tenant, got, want)
		}
	}
	if got := w.core.jobq.Len(); got != len(names) {
		return fmt.Errorf("recovery: %d jobs queued, %d markers on disk", got, len(names))
	}
	pending := map[string]bool{}
	for _, id := range d.markers {
		pending[id] = true
	}
	for id, st := range d.statuses {
		if pending[id] {
			continue // resubmitted, or its settlement was torn before the marker went
		}
		if got, ok := w.core.Status(id); !ok || got.State != st.State {
			return fmt.Errorf("recovery: terminal job %s (%s) is not queryable as such", id, st.State)
		}
	}
	if len(w.core.dead) != len(d.dead) {
		return fmt.Errorf("recovery: %d quarantined cells, disk lists %d", len(w.core.dead), len(d.dead))
	}
	return nil
}

// applyAll carries out effects the way the shell's applyLocked does,
// answering a Probe with Dispatch in place, and returns them flattened in
// the order it handled them. limit >= 0 stops after that many: the daemon
// died there.
func (w *world) applyAll(effs []Effect, limit int) ([]Effect, error) {
	var flat []Effect
	for i := 0; i < len(effs); i++ {
		if limit >= 0 && len(flat) == limit {
			return flat, nil
		}
		e := effs[i]
		flat = append(flat, e)
		if err := w.apply(e); err != nil {
			return flat, err
		}
		if e.Kind == Probe {
			cached := map[string]bool{}
			for _, cell := range e.Job.Cells {
				if w.cache[cell.Key] {
					cached[cell.Key] = true
				}
			}
			effs = append(effs, w.core.Dispatch(w.clock.now, e.Job.ID, cached)...)
		}
	}
	return flat, nil
}

func (w *world) apply(e Effect) error {
	switch e.Kind {
	case OpenStream:
		if _, dup := w.streams[e.Job]; dup {
			return fmt.Errorf("job %s: stream opened twice", e.Job.ID)
		}
		w.streams[e.Job] = "open"
	case Publish:
		if w.streams[e.Job] != "open" {
			return fmt.Errorf("job %s: line published on a stream that is %q: %s", e.Job.ID, w.streams[e.Job], e.Data)
		}
		return w.observeLine(e)
	case CloseStream:
		if w.streams[e.Job] != "open" {
			return fmt.Errorf("job %s: closing a stream that is %q", e.Job.ID, w.streams[e.Job])
		}
		w.streams[e.Job] = "closed"
	case Probe:
		// A job starts: it must be the oldest accepted job of its tenant
		// that has not started, and the only one running.
		q := w.fifo[e.Job.Tenant]
		if len(q) == 0 || q[0] != e.Job {
			return fmt.Errorf("job %s started out of submission order for tenant %s", e.Job.ID, e.Job.Tenant)
		}
		w.fifo[e.Job.Tenant] = q[1:]
	case Log:
		return w.checkLog(e)
	case WriteTrace:
		spans, err := trace.ParseJSONL(bytes.NewReader(e.Data))
		if err == nil {
			err = trace.Validate(spans)
		}
		if err != nil {
			return fmt.Errorf("job %s: terminal trace does not validate: %v", e.Job.ID, err)
		}
	default:
		return w.disk.apply(e, func(j *Job) int { return w.specIdx[j] })
	}
	return nil
}

// checkLog: a log line that names a job is about the job the effect
// carries and ends with that job's trace id, so the daemon log joins with
// the job's trace.jsonl.
func (w *world) checkLog(e Effect) error {
	if !strings.HasPrefix(e.Msg, "job ") {
		return nil
	}
	w.jobLogs = append(w.jobLogs, e.Msg)
	switch {
	case e.Job == nil:
		return fmt.Errorf("log line %q names a job but carries none", e.Msg)
	case !strings.HasPrefix(e.Msg, "job "+e.Job.ID+": "):
		return fmt.Errorf("log line %q carries job %s", e.Msg, e.Job.ID)
	case e.Job.TraceID() == "" || !strings.HasSuffix(e.Msg, " trace="+e.Job.TraceID()):
		return fmt.Errorf("log line %q does not end with job %s's trace id %q", e.Msg, e.Job.ID, e.Job.TraceID())
	}
	return nil
}

// observeLine counts cell settlements off the event stream.
func (w *world) observeLine(e Effect) error {
	if e.Cell < 0 {
		return nil
	}
	tr := w.cells[e.Job.Cells[e.Cell]]
	switch {
	case bytes.Contains(e.Data, []byte(`"state":"done"`)):
		tr.done++
	case bytes.Contains(e.Data, []byte(`"state":"quarantined"`)):
		tr.quarantined++
	}
	if tr.done+tr.quarantined > 1 {
		return fmt.Errorf("job %s cell %d settled more than once (%d done, %d quarantined)", e.Job.ID, e.Cell, tr.done, tr.quarantined)
	}
	return nil
}

// --- ops -------------------------------------------------------------------------

// step runs one op and checks the invariants.
func (w *world) step(op dstOp) error {
	w.remember()
	now := w.clock.now
	var effs []Effect
	var post func() error // checked once the op's effects are applied
	switch op.Kind {
	case opStart:
		w.started = true
		effs = w.core.Start(now)

	case opSubmit:
		i := op.A % len(w.specs)
		if op.A%16 < 10 { // the flood: tenant 0's specs
			i = (op.A % (len(w.specs) / 3)) * 3
		}
		j := w.specs[i].build(i)
		preLen, preDepth := w.core.jobq.Len(), w.core.jobq.Depth(j.Tenant)
		existing, had := w.core.jobs[j.ID]
		wasLive := had && !Terminal(existing.State)
		accepting := w.core.accepting
		var reply SubmitReply
		reply, effs = w.core.Submit(now, j, []byte(strconv.Itoa(i)), "")
		switch reply.Outcome {
		case Accepted:
			// Only Force (recovery, requeue) may take the queue past its
			// depth or a tenant past its quota.
			if !accepting || wasLive || preLen >= w.cfg.QueueDepth || (w.cfg.Quota > 0 && preDepth >= w.cfg.Quota) {
				return fmt.Errorf("submit of %s accepted with accepting=%v live=%v queue %d/%d tenant %d/%d",
					j.ID, accepting, wasLive, preLen, w.cfg.QueueDepth, preDepth, w.cfg.Quota)
			}
			w.specIdx[j] = i
			w.track(j)
		case Deduped:
			if !wasLive {
				return fmt.Errorf("submit of %s deduped onto a job that is not live", j.ID)
			}
		case Draining:
			if accepting {
				return fmt.Errorf("submit refused as draining while accepting")
			}
		case TenantFull:
			if w.cfg.Quota == 0 || preDepth < w.cfg.Quota {
				return fmt.Errorf("tenant-full refusal at depth %d of quota %d", preDepth, w.cfg.Quota)
			}
		case QueueFull:
			if preLen < w.cfg.QueueDepth {
				return fmt.Errorf("queue-full refusal at depth %d of %d", preLen, w.cfg.QueueDepth)
			}
		}

	case opLease:
		if w.cfg.Workers == 0 {
			return nil
		}
		worker := "w" + strconv.Itoa(op.A%w.cfg.Workers)
		eligible := w.eligibleTenants(now)
		var g *fleet.LeaseGrant
		g, _, effs = w.core.Lease(now, worker)
		if g != nil {
			w.grants = append(w.grants, grant{id: g.LeaseID, key: g.CacheKey, worker: worker})
			if err := w.served(w.core.jobs[g.JobID].Tenant, eligible); err != nil {
				return err
			}
		} else if len(eligible) > 0 {
			return fmt.Errorf("lease came back empty while tenants %v had a ready cell", eligible)
		}

	case opHeartbeat:
		if len(w.grants) == 0 {
			return nil
		}
		g := w.grants[op.A%len(w.grants)]
		_, live := w.core.leases.Get(g.id)
		if _, ok := w.core.Heartbeat(now, g.id); ok != live {
			return fmt.Errorf("heartbeat on %s answered %v, lease live=%v", g.id, ok, live)
		}

	case opComplete:
		if len(w.grants) == 0 {
			return nil
		}
		gi := op.A % len(w.grants)
		g := w.grants[gi]
		up := Upload{Worker: g.worker}
		switch op.B % 8 {
		case 0, 1, 2, 3: // the worker ran the cell and uploads it; absorbed whether or not the lease lives
			up.Files = true
			up.AbsorbStart, up.AbsorbEnd = now, now
			w.cache[g.key] = true
		case 4: // empty-handed: fine only if the artifact is already there
		case 5, 7:
			up.Err = "worker fault"
		case 6:
			up.Files = true
			up.AbsorbErr = "disk full"
		}
		l, wasLive := w.core.leases.Get(g.id)
		if wasLive {
			up.Cached = w.cache[l.Key]
		}
		var live bool
		live, effs = w.core.Complete(now, g.id, up)
		if live && !wasLive {
			return fmt.Errorf("completion under dead lease %s was accepted", g.id)
		}
		if op.B%16 < 8 { // half the time the worker forgets the grant; otherwise it may complete it again, late
			w.grants = append(w.grants[:gi], w.grants[gi+1:]...)
		}

	case opClaim:
		eligible := w.eligibleTenants(now)
		claim := w.core.ClaimLocal(now)
		if claim != nil {
			w.claims = append(w.claims, claim)
			if err := w.served(claim.Job.Tenant, eligible); err != nil {
				return err
			}
		} else if len(eligible) > 0 && w.core.activeWorkers(now) == 0 {
			return fmt.Errorf("local claim came back empty with no live worker while tenants %v had a ready cell", eligible)
		}

	case opLocalDone:
		if len(w.claims) == 0 {
			return nil
		}
		ci := op.A % len(w.claims)
		effs = w.finishClaim(ci, op.B)

	case opAdvance:
		jumps := []time.Duration{100 * time.Millisecond, dstTTL / 4, dstTTL / 2, dstTTL, dstTTL + dstTTL/4, 2 * dstTTL}
		w.clock.now = w.clock.now.Add(jumps[op.A%len(jumps)])
		now = w.clock.now
		effs = w.core.Tick(now)
		post = func() error { return w.checkTicked(now) }

	case opTick:
		effs = w.core.Tick(now)
		post = func() error { return w.checkTicked(now) }

	case opRequeue:
		var keys []string
		if op.A%2 == 1 && len(w.core.dead) > 0 {
			keys = []string{w.core.dead[op.B%len(w.core.dead)].CacheKey}
		}
		rebuilt := map[string]Rebuilt{}
		for _, e := range w.core.dead {
			if i, ok := w.disk.requests[e.JobID]; ok {
				j := w.specs[i].build(i)
				w.specIdx[j] = i
				rebuilt[e.JobID] = Rebuilt{Job: j, Body: []byte(strconv.Itoa(i))}
			}
		}
		var reply RequeueReply
		reply, effs = w.core.Requeue(now, keys, rebuilt)
		for _, id := range reply.Resp.Requeued {
			w.track(rebuilt[id].Job)
		}

	case opRestart:
		return w.restart(op)
	}

	if op.Crash > 0 {
		return w.crash(effs, op.Crash-1)
	}
	if _, err := w.applyAll(effs, -1); err != nil {
		return err
	}
	if post != nil {
		if err := post(); err != nil {
			return err
		}
	}
	return w.check()
}

// finishClaim reports local claim ci back: from the cache, run and promoted,
// or failed.
func (w *world) finishClaim(ci, outcome int) []Effect {
	claim := w.claims[ci]
	w.claims = append(w.claims[:ci], w.claims[ci+1:]...)
	now := w.clock.now
	var res LocalResult
	switch {
	case w.cache[claim.Cell.Key]:
		res.CacheHit = true
	case outcome%4 == 3:
		res.Err = "local fault"
	default:
		res.PromoteStart, res.PromoteEnd = now, now
		w.cache[claim.Cell.Key] = true
	}
	return w.core.LocalDone(now, claim.Cell.Key, res)
}

// restart is the graceful path: drain, let the local executors finish what
// they hold, and bring up the next life over the same disk.
func (w *world) restart(op dstOp) error {
	if _, err := w.applyAll(w.core.Drain(w.clock.now), -1); err != nil {
		return err
	}
	if reply, _ := w.core.Submit(w.clock.now, w.specs[0].build(0), nil, ""); reply.Outcome != Draining {
		return fmt.Errorf("submit during drain answered %v, want Draining", reply.Outcome)
	}
	for len(w.claims) > 0 {
		if err := w.check(); err != nil {
			return err
		}
		if _, err := w.applyAll(w.finishClaim(0, op.B), -1); err != nil {
			return err
		}
	}
	if err := w.check(); err != nil {
		return err
	}
	if !w.core.Drained() {
		return fmt.Errorf("drain finished with %d jobs still running", len(w.core.running))
	}
	if n := w.core.leases.Len(); n != 0 {
		return fmt.Errorf("drain left %d live leases", n)
	}
	// What the drain leaves is what the next life needs: every job that is
	// not terminal has its marker.
	marked := map[string]bool{}
	for _, id := range w.disk.markers {
		marked[id] = true
	}
	for id, j := range w.core.jobs {
		if !Terminal(j.State) && !marked[id] {
			return fmt.Errorf("drained job %s (%s) has no queue marker", id, j.State)
		}
		if Terminal(j.State) && j.tr != nil && marked[id] {
			return fmt.Errorf("terminal job %s still has queue marker", id)
		}
	}
	if err := w.boot(w.disk); err != nil {
		return err
	}
	if op.A%4 != 0 {
		return w.step(dstOp{Kind: opStart})
	}
	return nil
}

// crash kills the daemon while it applies effs. Recovery is checked from
// the disk as it stands after every prefix; the run goes on in the life
// recovered after prefix pick.
func (w *world) crash(effs []Effect, pick int) error {
	before := w.disk.clone()
	flat, err := w.applyAll(effs, -1)
	if err != nil {
		return err
	}
	pick %= len(flat) + 1
	var chosen *disk
	for k := 0; k <= len(flat); k++ {
		d := before.clone()
		for _, e := range flat[:k] {
			if err := d.apply(e, func(j *Job) int { return w.specIdx[j] }); err != nil {
				return fmt.Errorf("crash after %d of %d effects: %v", k, len(flat), err)
			}
		}
		if k == pick {
			chosen = d
			continue
		}
		probe := &world{cfg: w.cfg, specs: w.specs, clock: w.clock, cache: w.cache}
		if err := probe.boot(d.clone()); err != nil {
			return fmt.Errorf("crash after %d of %d effects: %v", k, len(flat), err)
		}
	}
	if err := w.boot(chosen); err != nil {
		return fmt.Errorf("crash after %d of %d effects: %v", pick, len(flat), err)
	}
	return w.step(dstOp{Kind: opStart})
}

// --- invariants --------------------------------------------------------------------

// remember snapshots what the starvation check needs from before the op.
func (w *world) remember() {
	for _, j := range w.core.running {
		w.prevDisp[j] = j.dispatched
		for _, cell := range j.Cells {
			w.prevCell[cell] = cellSnap{cell.State, cell.Attempts}
		}
	}
}

// trackReady updates when each queued cell of a running job becomes ready:
// at dispatch, or a backoff after a failed attempt.
func (w *world) trackReady(now time.Time) {
	for _, j := range w.core.running {
		if !j.dispatched {
			continue
		}
		fresh := !w.prevDisp[j]
		for _, cell := range j.Cells {
			if cell.State != StateQueued {
				continue
			}
			prev, seen := w.prevCell[cell]
			switch {
			case fresh || !seen:
				w.readyAt[cell] = now
			case cell.Attempts > prev.attempts:
				w.readyAt[cell] = now.Add(w.core.cfg.Backoff.Delay(cell.Key, cell.Attempts))
			}
		}
	}
}

// eligibleTenants lists the tenants the fair tree could serve at now: a
// dispatched job that is not ending or out of time, under its in-flight
// cap, with a queued cell that is ready and whose key is not in flight.
func (w *world) eligibleTenants(now time.Time) []string {
	var out []string
	for tenant, j := range w.core.running {
		if !j.dispatched || j.ending != "" || (!j.deadline.IsZero() && !now.Before(j.deadline)) {
			continue
		}
		if w.cfg.Inflight > 0 && w.core.tree.Inflight(tenant) >= w.cfg.Inflight {
			continue
		}
		for _, cell := range j.Cells {
			_, busy := w.core.inflight[cell.Key]
			at, tracked := w.readyAt[cell]
			if cell.State == StateQueued && tracked && !at.After(now) && !busy {
				out = append(out, tenant)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// served records a pop that went to tenant while eligible tenants waited,
// and checks the rotation bound: between two of its own serves a tenant
// with a ready cell is passed over at most once per unit of every other
// tenant's weight.
func (w *world) served(tenant string, eligible []string) error {
	found := false
	for _, t := range eligible {
		if t == tenant {
			found = true
			continue
		}
		w.starved[t]++
		bound := 0
		for u := 0; u < w.cfg.Tenants; u++ {
			if name := tenantName(u); name != t {
				weight := w.cfg.Weights[name]
				if weight < 1 {
					weight = 1
				}
				bound += weight
			}
		}
		if w.starved[t] > bound {
			return fmt.Errorf("tenant %s had a ready cell through %d pops served to others; the rotation bound is %d", t, w.starved[t], bound)
		}
	}
	if !found {
		return fmt.Errorf("tenant %s was served a cell the model did not think ready (eligible: %v)", tenant, eligible)
	}
	w.starved[tenant] = 0
	return nil
}

// checkTicked: after a Tick at now nothing is left that was due.
func (w *world) checkTicked(now time.Time) error {
	if at, ok := w.core.leases.NextExpiry(); ok && !at.After(now) {
		return fmt.Errorf("tick at %v left a lease that expired at %v", now, at)
	}
	for _, j := range w.core.running {
		if j.ending == "" && !j.deadline.IsZero() && !now.Before(j.deadline) {
			return fmt.Errorf("tick at %v left job %s running past its deadline %v", now, j.ID, j.deadline)
		}
	}
	if next, ok := w.core.NextDeadline(now); ok && !next.After(now) {
		return fmt.Errorf("NextDeadline(%v) = %v, not in the future", now, next)
	}
	return nil
}

// check is the invariant suite, run after every op.
func (w *world) check() error {
	c := w.core
	now := w.clock.now
	w.trackReady(now)
	for t := range w.starved {
		stillWaiting := false
		for _, e := range w.eligibleTenants(now) {
			stillWaiting = stillWaiting || e == t
		}
		if !stillWaiting {
			w.starved[t] = 0
		}
	}

	runningByTenant := map[string]int{}
	inflightByTenant := map[string]int{}
	inflightKeys := map[string]*Cell{}
	leased := 0
	for id, j := range c.jobs {
		if id != j.ID {
			return fmt.Errorf("job %s registered under %s", j.ID, id)
		}
		switch j.State {
		case StateRunning:
			runningByTenant[j.Tenant]++
			if c.running[j.Tenant] != j {
				return fmt.Errorf("job %s is running but does not hold tenant %s's slot", j.ID, j.Tenant)
			}
		case StateQueued, StateDone, StateFailed:
		default:
			return fmt.Errorf("job %s in state %q", j.ID, j.State)
		}
		if j.tr == nil {
			continue // recovered terminal: a status, not a job this life ran
		}
		unsettled, local := 0, 0
		for _, cell := range j.Cells {
			tr := w.cells[cell]
			switch cell.State {
			case StateDone:
				if tr.done != 1 {
					return fmt.Errorf("job %s cell %d is done with %d done lines", j.ID, cell.Index, tr.done)
				}
			case StateQuarantined:
				if tr.quarantined != 1 {
					return fmt.Errorf("job %s cell %d is quarantined with %d quarantine lines", j.ID, cell.Index, tr.quarantined)
				}
			case StateLeased, StateRunning:
				if j.State != StateRunning {
					return fmt.Errorf("job %s (%s) has cell %d in flight (%s)", j.ID, j.State, cell.Index, cell.State)
				}
				if other, dup := inflightKeys[cell.Key]; dup {
					return fmt.Errorf("key %s in flight twice: job %s cell %d and another's cell %d", cell.Key, j.ID, cell.Index, other.Index)
				}
				inflightKeys[cell.Key] = cell
				inflightByTenant[j.Tenant]++
				if r, ok := c.inflight[cell.Key]; !ok || r.c != cell {
					return fmt.Errorf("job %s cell %d is %s but not in the in-flight set", j.ID, cell.Index, cell.State)
				}
				live := c.leases.Leased(cell.Key)
				if cell.State == StateLeased {
					leased++
					if !live {
						return fmt.Errorf("job %s cell %d is leased without a live lease", j.ID, cell.Index)
					}
				} else {
					local++
					if live || !cell.local {
						return fmt.Errorf("job %s cell %d runs locally but local=%v lease=%v", j.ID, cell.Index, cell.local, live)
					}
				}
			}
			if cell.State != StateDone && cell.State != StateQuarantined && cell.State != StateFailed {
				unsettled++
			}
		}
		if j.State == StateRunning && j.dispatched {
			if j.outstanding != unsettled {
				return fmt.Errorf("job %s: outstanding=%d, %d cells unsettled", j.ID, j.outstanding, unsettled)
			}
			if j.localActive != local {
				return fmt.Errorf("job %s: localActive=%d, %d cells running locally", j.ID, j.localActive, local)
			}
			if unsettled == 0 || (j.ending != "" && local == 0) {
				return fmt.Errorf("job %s should have settled: %d unsettled, ending=%q, %d local", j.ID, unsettled, j.ending, local)
			}
		}
		if Terminal(j.State) {
			if w.streams[j] != "closed" {
				return fmt.Errorf("terminal job %s has a stream that is %q", j.ID, w.streams[j])
			}
			if st, ok := w.disk.statuses[j.ID]; !ok || st.State != j.State {
				return fmt.Errorf("terminal job %s (%s) has status %q on disk", j.ID, j.State, st.State)
			}
			if j.Marker != "" {
				return fmt.Errorf("terminal job %s still remembers marker %s", j.ID, j.Marker)
			}
			for _, cell := range j.Cells {
				if cell.State != StateDone && cell.State != StateQuarantined && cell.State != StateFailed {
					return fmt.Errorf("terminal job %s has cell %d %s", j.ID, cell.Index, cell.State)
				}
			}
		} else if w.disk.markers[j.Marker] != j.ID {
			return fmt.Errorf("job %s (%s) has no marker on disk (remembers %q)", j.ID, j.State, j.Marker)
		}
	}
	for tenant, n := range runningByTenant {
		if n > 1 {
			return fmt.Errorf("tenant %s has %d jobs running", tenant, n)
		}
	}
	if len(c.running) != len(runningByTenant) {
		return fmt.Errorf("%d running slots, %d running jobs", len(c.running), len(runningByTenant))
	}
	if len(c.inflight) != len(inflightKeys) {
		return fmt.Errorf("in-flight set has %d keys, cells in flight have %d", len(c.inflight), len(inflightKeys))
	}
	if c.leases.Len() != leased {
		return fmt.Errorf("%d live leases, %d leased cells", c.leases.Len(), leased)
	}
	for t := 0; t < w.cfg.Tenants; t++ {
		tenant := tenantName(t)
		if got := c.tree.Inflight(tenant); got != inflightByTenant[tenant] {
			return fmt.Errorf("tenant %s: tree counts %d in flight, its cells say %d", tenant, got, inflightByTenant[tenant])
		}
		if w.cfg.Inflight > 0 && inflightByTenant[tenant] > w.cfg.Inflight {
			return fmt.Errorf("tenant %s has %d cells in flight, cap %d", tenant, inflightByTenant[tenant], w.cfg.Inflight)
		}
	}
	// A quarantine entry speaks for a cell that is quarantined now, or for
	// a job that is not in play.
	for _, e := range c.dead {
		j, ok := c.jobs[e.JobID]
		if !ok || j.tr == nil || Terminal(j.State) {
			continue
		}
		for _, cell := range j.Cells {
			if cell.Key == e.CacheKey && cell.State == StateDone {
				return fmt.Errorf("cell %s of live job %s is done and on the dead-letter list", e.CacheKey, e.JobID)
			}
		}
	}
	if c.Drained() != (!c.accepting && len(runningByTenant) == 0) {
		return fmt.Errorf("Drained()=%v with accepting=%v and %d running", c.Drained(), c.accepting, len(runningByTenant))
	}
	if !w.started && len(runningByTenant) > 0 {
		return fmt.Errorf("%d jobs running before Start", len(runningByTenant))
	}
	return nil
}

// run executes ops against a fresh world and reports the first violation.
func run(cfg dstConfig, ops []dstOp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	w := newWorld(cfg)
	for i, op := range ops {
		if err := w.step(op); err != nil {
			return fmt.Errorf("op %d %v (life %d): %w", i, op, w.lives, err)
		}
	}
	return w.converge()
}

// converge is the liveness half: from wherever the ops left it, a started
// daemon with a willing fleet (or none) finishes every job it holds.
func (w *world) converge() error {
	if !w.core.accepting {
		return nil
	}
	if err := w.step(dstOp{Kind: opStart}); err != nil {
		return err
	}
	w.grants = nil
	for round := 0; round < 400; round++ {
		busy := false
		for _, j := range w.core.jobs {
			busy = busy || !Terminal(j.State)
		}
		if !busy {
			return nil
		}
		var op dstOp
		switch {
		case len(w.claims) > 0:
			op = dstOp{Kind: opLocalDone}
		case len(w.grants) > 0:
			op = dstOp{Kind: opComplete}
		case round%3 == 0:
			op = dstOp{Kind: opAdvance, A: 1}
		case w.cfg.Workers > 0 && w.core.activeWorkers(w.clock.now) > 0:
			op = dstOp{Kind: opLease}
		default:
			op = dstOp{Kind: opClaim}
		}
		if err := w.step(op); err != nil {
			return fmt.Errorf("converging, %v: %w", op, err)
		}
	}
	var stuck []string
	for id, j := range w.core.jobs {
		if !Terminal(j.State) {
			stuck = append(stuck, id+":"+j.State)
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("jobs never finished under a willing fleet: %v", stuck)
}

// failureClass is a violation's message without the op position and with
// every number blanked, so the same invariant failing on another job, cell
// or count still compares equal.
func failureClass(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if i := strings.Index(msg, "): "); i >= 0 {
		msg = msg[i+3:]
	}
	return strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return -1
		}
		return r
	}, msg)
}

// shrink reduces a failing op list by removing chunks, halving the chunk
// size down to single ops, for as long as the run still fails the same way.
func shrink(cfg dstConfig, ops []dstOp) []dstOp {
	class := failureClass(run(cfg, ops))
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(ops); {
			cut := append(append([]dstOp(nil), ops[:start]...), ops[start+chunk:]...)
			if failureClass(run(cfg, cut)) == class {
				ops = cut
			} else {
				start += chunk
			}
		}
	}
	return ops
}

func literal(ops []dstOp) string {
	var b strings.Builder
	b.WriteString("[]dstOp{")
	for i, op := range ops {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(op.String())
	}
	b.WriteString("}")
	return b.String()
}

// TestDST runs the seeded sequences. On a failure it shrinks the op list
// and prints it as a literal for TestDSTRegressions.
func TestDST(t *testing.T) {
	for seed := int64(1); seed <= int64(*dstSeeds); seed++ {
		cfg := configFor(seed)
		ops := genOps(seed, *dstOps)
		if err := run(cfg, ops); err != nil {
			small := shrink(cfg, ops)
			t.Fatalf("seed %d: %v\nshrunk to %d ops, failing with: %v\nreplay: {seed: %d, ops: %s}",
				seed, err, len(small), run(cfg, small), seed, literal(small))
		}
	}
}

// TestJobLogLinesCarryTheirTraceID runs the first 300 seeds of TestDST,
// whose worlds check every log line as it is emitted (checkLog), and
// requires that between them they logged each kind of job line the core
// emits in a run without corrupt worker spans.
func TestJobLogLinesCarryTheirTraceID(t *testing.T) {
	kinds := []string{": queued (", ": running ", " leased to ", "; retrying in ", " quarantined after ",
		": requeued for the next daemon instance", ": requeued from the dead letter list", ": done trace=", ": failed trace="}
	seen := make([]int, len(kinds))
	for seed := int64(1); seed <= 300; seed++ {
		w := newWorld(configFor(seed))
		var err error
		for _, op := range genOps(seed, *dstOps) {
			if err = w.step(op); err != nil {
				break
			}
		}
		if err == nil {
			err = w.converge()
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, line := range w.jobLogs {
			for k, kind := range kinds {
				if strings.Contains(line, kind) {
					seen[k]++
				}
			}
		}
	}
	for k, kind := range kinds {
		if seen[k] == 0 {
			t.Errorf("no job log line containing %q in 300 seeds", kind)
		}
	}
}

// TestDSTRegressions replays the shrunk sequences of every failure the
// simulation has found.
func TestDSTRegressions(t *testing.T) {
	for _, tc := range dstRegressions {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(configFor(tc.seed), tc.ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzCoreOps drives the same world from bytes: the first eight pick the
// config seed, every four after that are one op.
func FuzzCoreOps(f *testing.F) {
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x03\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00"))
	for _, tc := range dstRegressions {
		data := []byte{byte(tc.seed), byte(tc.seed >> 8), 0, 0, 0, 0, 0, 0}
		for _, op := range tc.ops {
			data = append(data, byte(op.Kind), byte(op.A), byte(op.B), byte(op.Crash))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		seed := int64(data[0]) | int64(data[1])<<8
		var ops []dstOp
		for rest := data[8:]; len(rest) >= 4 && len(ops) < 2000; rest = rest[4:] {
			op := dstOp{Kind: opKind(rest[0] % byte(opKinds)), A: int(rest[1]), B: int(rest[2])}
			if rest[3] <= 16 {
				op.Crash = int(rest[3])
			}
			ops = append(ops, op)
		}
		if err := run(configFor(seed), ops); err != nil {
			t.Fatalf("seed %d: %v\nreplay: {seed: %d, ops: %s}", seed, err, seed, literal(ops))
		}
	})
}
