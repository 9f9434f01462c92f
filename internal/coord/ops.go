package coord

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynaq/internal/fairq"
	"dynaq/internal/fleet"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// Snapshot is what a previous daemon life left on disk, as the shell read
// it. Markers names every queue marker (the sequence counter resumes past
// them); Queued is the pending jobs rebuilt from their requests in marker
// order, with Marker and the cells' Attempts restored.
type Snapshot struct {
	Dead     []fleet.DeadLetterEntry
	Terminal []JobStatus
	Markers  []string
	Queued   []*Job
}

// Recover loads a previous life's state into an empty core. Terminal jobs
// become queryable again; pending ones re-enter their tenants' FIFOs in
// marker order, past quota and capacity — work admitted once is not dropped
// because limits shrank between lives.
func (c *Core) Recover(now time.Time, snap Snapshot) []Effect {
	c.dead = append(c.dead, snap.Dead...)
	for _, name := range snap.Markers {
		if seq, _, ok := strings.Cut(name, "-"); ok {
			if n, err := strconv.Atoi(seq); err == nil && n > c.seq {
				c.seq = n
			}
		}
	}
	for _, st := range snap.Terminal {
		c.jobs[st.ID] = jobFromStatus(st, c.cfg.Version)
	}
	for _, j := range snap.Queued {
		c.register(now, j, "")
		j.rootSpan.Event("recovered")
		c.jobq.Force(j.Tenant, j)
	}
	return c.take()
}

// Start begins admission: from now on every tenant with nothing running has
// its head-of-line job admitted as soon as it is queued.
func (c *Core) Start(now time.Time) []Effect {
	c.admitting = c.accepting
	c.admit(now)
	return c.take()
}

// Drain begins a graceful stop. Submissions are refused from here on and
// no further job or cell starts; a running job goes back to queued
// with its attempts persisted, its marker still in FIFO position for the
// next life. One with cells executing locally waits for them (they land in
// the cache) and is settled by the LocalDone that brings in the last.
func (c *Core) Drain(now time.Time) []Effect {
	if c.accepting {
		c.accepting, c.admitting = false, false
		for _, j := range c.runningJobs() {
			c.end(now, j, endDrain)
		}
	}
	return c.take()
}

// runningJobs lists the running jobs in tenant order, so that walking them
// emits effects in the same order every time.
func (c *Core) runningJobs() []*Job {
	jobs := make([]*Job, 0, len(c.running))
	for _, j := range c.running {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Tenant < jobs[b].Tenant })
	return jobs
}

// --- submit, admit, dispatch -------------------------------------------------

// Outcome says what Submit or Requeue did.
type Outcome int

const (
	Accepted   Outcome = iota // enqueued; Status is the new job
	Deduped                   // identical work is queued or running; Status is that job
	Draining                  // refused: Drain has begun
	TenantFull                // refused: the tenant's quota is spent
	QueueFull                 // refused: the shared queue is full
)

// SubmitReply is Submit's answer. A refusal carries its message and the
// backlog behind it: the tenant's leaf, and for QueueFull the shared queue.
type SubmitReply struct {
	Outcome     Outcome
	Status      JobStatus
	TraceID     string
	Err         string
	Tenant      string
	TenantDepth int
	TenantQuota int
	QueueDepth  int
}

// Submit enqueues j under its tenant. An id already queued or running
// dedupes onto that job; a terminal one is replaced by j — done cells then
// come back as cache hits at dispatch, failed ones get a fresh budget. body
// is persisted so the job survives a restart; traceID is the caller's
// proposal for the trace id.
func (c *Core) Submit(now time.Time, j *Job, body []byte, traceID string) (SubmitReply, []Effect) {
	if !c.accepting {
		c.rejected["draining"].Inc()
		return SubmitReply{Outcome: Draining}, nil
	}
	if existing, ok := c.jobs[j.ID]; ok && !Terminal(existing.State) {
		c.jobsDeduped.Inc()
		return SubmitReply{Outcome: Deduped, Status: c.status(existing), TraceID: existing.TraceID()}, nil
	}
	if err := c.jobq.Enqueue(j.Tenant, j); err != nil {
		reply := SubmitReply{Outcome: TenantFull, Err: err.Error(), Tenant: j.Tenant,
			TenantDepth: c.jobq.Depth(j.Tenant), TenantQuota: c.cfg.TenantQuota}
		var tf *fairq.TenantFullError
		if errors.As(err, &tf) {
			c.rejected["tenant_quota"].Inc()
		} else {
			c.rejected["queue_full"].Inc()
			reply.Outcome, reply.QueueDepth = QueueFull, c.jobq.Len()
		}
		return reply, nil
	}
	c.accept(now, j, body, traceID)
	reply := SubmitReply{Outcome: Accepted, Status: c.status(j), TraceID: j.TraceID()}
	c.jobLogf(j, "queued (%d cells)", len(j.Cells))
	c.admit(now)
	return reply, c.take()
}

// accept registers a job that has just entered its tenant's FIFO: the
// marker that fixes its place in line, its event stream, its trace.
func (c *Core) accept(now time.Time, j *Job, body []byte, traceID string) {
	c.jobsSubbed.Inc()
	c.seq++
	j.Marker = fmt.Sprintf("%08d-%s", c.seq, j.ID)
	c.register(now, j, traceID)
	c.emit(Effect{Kind: PersistRequest, Job: j, Data: body, Marker: j.Marker})
}

// register takes ownership of a queued job the shell built: its states, its
// tenant's series, its event stream, its trace.
func (c *Core) register(now time.Time, j *Job, traceID string) {
	c.jobs[j.ID] = j
	j.State = StateQueued
	for _, cell := range j.Cells {
		cell.State = StateQueued
	}
	c.ensureTenantMetrics(j.Tenant)
	c.emit(Effect{Kind: OpenStream, Job: j})
	c.startTrace(now, j, traceID)
}

// startTrace opens a job's trace: the root span and its queue-wait child.
// requested names it if short and shell- and log-safe; the default carries
// the marker sequence, unique per submission of the same job id.
func (c *Core) startTrace(now time.Time, j *Job, requested string) {
	unsafe := func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.')
	}
	if requested == "" || len(requested) > 64 || strings.IndexFunc(requested, unsafe) >= 0 {
		requested = fmt.Sprintf("%s-%d", j.ID, c.seq)
	}
	j.tr = trace.New(requested, "coordinator", c.cfg.Clock)
	j.queuedAt = now
	j.rootSpan = j.tr.Start("job", "",
		trace.A("job", j.ID), trace.A("tenant", j.Tenant), trace.AInt("cells", int64(len(j.Cells))))
	j.rootSpan.Event("accepted")
	j.queueSpan = j.rootSpan.Child("queue-wait")
}

// admit starts the head-of-line job of every tenant that has nothing
// running — tenants proceed independently, each tenant's jobs strictly FIFO
// — and asks the shell to probe the cache for it so Dispatch can follow.
func (c *Core) admit(now time.Time) {
	if !c.admitting {
		return
	}
	for _, tenant := range c.jobq.Tenants() {
		if c.running[tenant] != nil {
			continue
		}
		j, _ := c.jobq.Pop(tenant)
		c.running[tenant] = j
		j.State = StateRunning
		j.queueSpan.End()
		waitMs := now.Sub(j.queuedAt).Milliseconds()
		c.hQueueWait.Observe(waitMs)
		c.reg.Histogram("dynaqd_tenant_queue_wait_ms", latencyBucketsMs, telemetry.L("tenant", tenant)).Observe(waitMs)
		c.jobLogf(j, "running %d cell(s)", len(j.Cells))
		c.publish(j, -1, `{"kind":"job","state":"running"}`)
		c.emit(Effect{Kind: Probe, Job: j})
	}
}

// Dispatch answers a Probe: cells whose key is in cached are done on the
// spot, the rest enter the fair tree for whoever asks next, a worker or the
// local pool. The job's deadline runs from here. A job that is not running
// with nothing dispatched (Drain requeued it meanwhile) is left alone.
func (c *Core) Dispatch(now time.Time, id string, cached map[string]bool) []Effect {
	j, ok := c.jobs[id]
	if !ok || j.State != StateRunning || j.dispatched {
		return nil
	}
	j.dispatched = true
	if c.cfg.JobTimeout > 0 {
		j.deadline = now.Add(c.cfg.JobTimeout)
	}
	for _, cell := range j.Cells {
		if !cached[cell.Key] {
			j.outstanding++
			c.tree.Push(j.Tenant, runnable{j, cell}, now)
			continue
		}
		cell.State, cell.CacheHit, cell.Dir = StateDone, true, c.cfg.CellDir(cell.Key)
		c.cacheHits.Inc()
		j.rootSpan.Event("cell-cache-hit", trace.AInt("cell", int64(cell.Index)))
		c.publish(j, cell.Index, `{"kind":"cell","state":"done","cache_hit":true}`)
		c.revive(j, cell)
	}
	c.settleIfDue(now, j)
	return c.take()
}

// --- lease, claim, heartbeat ---------------------------------------------------

// pop takes the next dispatchable cell in fair order for worker ("" for the
// local pool, spanWorker in the trace), marks its key in flight and opens
// the attempt's span; the tenant's slot is held until release. A cell stays
// queued while its key is in flight (two tenants' jobs may share cells) or
// its job is ending or past its deadline.
func (c *Core) pop(now time.Time, worker, spanWorker string) (*Job, *Cell) {
	_, r, ok := c.tree.Pop(now, func(r runnable) bool {
		_, busy := c.inflight[r.c.Key]
		return !busy && r.j.ending == "" && (r.j.deadline.IsZero() || now.Before(r.j.deadline))
	})
	if !ok {
		return nil, nil
	}
	c.inflight[r.c.Key] = r
	r.c.Worker, r.c.leasedAt = worker, now
	r.c.span = r.j.rootSpan.Child("cell",
		trace.AInt("cell", int64(r.c.Index)), trace.A("scheme", r.c.Scheme), trace.AInt("seed", r.c.Seed),
		trace.A("tenant", r.j.Tenant), trace.AInt("attempt", int64(r.c.Attempts+1)), trace.A("worker", spanWorker))
	c.reg.Counter("dynaqd_tenant_dispatch_total", telemetry.L("tenant", r.j.Tenant)).Inc()
	return r.j, r.c
}

// release takes a cell out of flight and returns its tenant's slot; safe on
// a cell that is not in flight.
func (c *Core) release(j *Job, cell *Cell) {
	if r, ok := c.inflight[cell.Key]; ok && r.c == cell {
		delete(c.inflight, cell.Key)
		cell.local = false
		c.tree.Release(j.Tenant)
	}
}

// Lease hands the next ready cell — whichever tenant the weighted rotation
// owes a slot — to a polling worker. Polling at all marks the worker live,
// which stands the local pool down. With no grant, retryAfter is the
// delta-seconds until the next requeued cell's backoff elapses, rounded up
// so a client honoring it never polls early ("" when nothing is queued).
func (c *Core) Lease(now time.Time, worker string) (grant *fleet.LeaseGrant, retryAfter string, effs []Effect) {
	c.workers[worker] = now
	if !c.workerSeries[worker] {
		c.workerSeries[worker] = true
		c.reg.GaugeFunc("dynaqd_worker_leases", func() int64 {
			return int64(c.leases.PerWorker()[worker])
		}, telemetry.L("worker", worker))
	}
	j, cell := c.pop(now, worker, worker)
	if cell == nil {
		if at, ok := c.tree.NextAt(); ok {
			retryAfter = strconv.FormatInt(max(1, int64((at.Sub(now)+time.Second-1)/time.Second)), 10)
		}
		return nil, retryAfter, nil
	}
	l := c.leases.Grant(cell.Key, j.ID, worker, cell.Attempts+1, now, c.cfg.LeaseTTL)
	cell.State = StateLeased
	cell.span.Annotate(trace.A("lease", l.ID))
	c.leaseGrants.Inc()
	c.publish(j, cell.Index, `{"kind":"cell","state":"leased","worker":`+strconv.Quote(worker)+`,"attempt":`+strconv.Itoa(l.Attempt)+`}`)
	c.jobLogf(j, "cell %d leased to %s (%s, attempt %d)", cell.Index, worker, l.ID, l.Attempt)
	return &fleet.LeaseGrant{
		LeaseID:      l.ID,
		JobID:        j.ID,
		CellIndex:    cell.Index,
		CacheKey:     cell.Key,
		Scheme:       cell.Scheme,
		Seed:         cell.Seed,
		Attempt:      l.Attempt,
		TTLMillis:    c.cfg.LeaseTTL.Milliseconds(),
		Version:      c.cfg.Version,
		ScenarioHash: j.ScenarioHash,
		Scenario:     j.Scenario,
		TraceID:      j.TraceID(),
		ParentSpan:   cell.span.ID(),
	}, "", c.take()
}

// LocalClaim is one cell handed to the coordinator's own executor pool: the
// job and cell (read-only outside the core), the span for execution phases,
// and the event line announcing a fresh run, published once the executor
// knows the cache does not already hold the artifact.
type LocalClaim struct {
	Job     *Job
	Cell    *Cell
	Span    *trace.SpanRef
	Running []byte
}

// ClaimLocal is Lease for the local pool, which gets work only while no
// fleet worker is live (Tick notices when the fleet goes quiet). The claim
// has no TTL: the executor always reports back with LocalDone.
func (c *Core) ClaimLocal(now time.Time) *LocalClaim {
	if c.activeWorkers(now) > 0 {
		return nil
	}
	j, cell := c.pop(now, "", "local")
	if cell == nil {
		return nil
	}
	cell.State, cell.local = StateRunning, true
	j.localActive++
	return &LocalClaim{Job: j, Cell: cell, Span: cell.span,
		Running: []byte(`{"kind":"cell","state":"running","scheme":` + strconv.Quote(cell.Scheme) +
			`,"seed":` + strconv.FormatInt(cell.Seed, 10) + `,"attempt":` + strconv.Itoa(cell.Attempts+1) + `}` + "\n")}
}

// Heartbeat renews a live lease and reports the TTL to renew within; false
// means the lease is gone (its cell already requeued).
func (c *Core) Heartbeat(now time.Time, leaseID string) (ttlMillis int64, ok bool) {
	l, ok := c.leases.Renew(leaseID, now, c.cfg.LeaseTTL)
	if !ok {
		return 0, false
	}
	c.workers[l.Worker] = now
	c.leaseRenews.Inc()
	return c.cfg.LeaseTTL.Milliseconds(), true
}

// --- complete, local-done, tick ----------------------------------------------

// Upload is what a completion carried and what became of it: the shell
// absorbs uploaded files before the lease is even looked at (the key fully
// determines the bytes, so a late upload still serves the requeued attempt).
type Upload struct {
	Worker      string
	Err         string    // the worker's own failure report
	Files       bool      // the completion carried artifact files
	AbsorbErr   string    // why they could not be absorbed; "" if they were, or there were none
	AbsorbStart time.Time // zero when nothing was absorbed
	AbsorbEnd   time.Time
	Cached      bool   // the leased cell's artifact is in the cache now
	Spans       []byte // the worker's span log, trace JSONL
}

// Complete settles a leased cell. false means the lease is not live —
// lapsed, completed already, dropped with its job — and nothing changed but
// the worker's liveness: the retry owns the cell.
func (c *Core) Complete(now time.Time, leaseID string, up Upload) (bool, []Effect) {
	if up.Worker != "" {
		c.workers[up.Worker] = now
	}
	l, ok := c.leases.Complete(leaseID)
	if !ok {
		return false, nil
	}
	r, ok := c.inflight[l.Key]
	if !ok || r.j.ID != l.JobID || r.c.State != StateLeased {
		return false, nil
	}
	j, cell := r.j, r.c
	// Spans riding a dead lease were dropped above with it.
	if len(up.Spans) > 0 {
		if spans, err := trace.ParseJSONL(bytes.NewReader(up.Spans)); err == nil {
			j.tr.Absorb(spans)
		} else {
			c.jobLogf(j, "lease %s: unparseable worker spans: %v", leaseID, err)
		}
	}
	if !up.AbsorbStart.IsZero() {
		j.tr.WallSpan("absorb-upload", cell.span.ID(), up.AbsorbStart, up.AbsorbEnd)
	}
	if up.AbsorbErr == "" && up.Files {
		cell.span.Event("uploaded")
	}
	reason := cmp.Or(up.Err, up.AbsorbErr)
	if reason == "" && !up.Cached {
		reason = "completion carried no artifact for key " + cell.Key
	}
	if reason != "" {
		c.cellFailed(now, j, cell, l.Worker, reason)
	} else {
		c.cellsRemote.Inc()
		c.cellDone(now, j, cell, false)
	}
	c.settleIfDue(now, j)
	return true, c.take()
}

// LocalResult is how a locally claimed cell ended: served from the cache
// after all, failed, or run and promoted (Sim, the run's series, feeds the
// sim totals on /metrics; the promote times become a span).
type LocalResult struct {
	CacheHit     bool
	Err          string
	Sim          []telemetry.SeriesValue
	PromoteStart time.Time
	PromoteEnd   time.Time
}

// LocalDone settles the locally claimed cell with the given key.
func (c *Core) LocalDone(now time.Time, key string, res LocalResult) []Effect {
	r, ok := c.inflight[key]
	if !ok || !r.c.local {
		return nil
	}
	j, cell := r.j, r.c
	j.localActive--
	switch {
	case res.CacheHit:
		c.cacheHits.Inc()
		c.cellDone(now, j, cell, true)
	case res.Err != "":
		c.cacheMisses.Inc()
		c.cellFailed(now, j, cell, "local", res.Err)
	default:
		c.cacheMisses.Inc()
		j.tr.WallSpan("promote", cell.span.ID(), res.PromoteStart, res.PromoteEnd)
		c.cellsRun.Inc()
		// Not gauges: a finished run's instantaneous value means nothing.
		for _, sv := range res.Sim {
			if sv.Kind == "counter" {
				c.simTotals["dynaqd_sim_"+sv.ID] += sv.Value
			}
		}
		c.cellDone(now, j, cell, false)
	}
	c.settleIfDue(now, j)
	return c.take()
}

// Tick is the maintenance pass, due when NextDeadline says: lapsed leases
// charge their cell a failed attempt, workers silent past the liveness
// window are forgotten (so the local pool takes over), and jobs past their
// deadline stop dispatching and fail once their local executions are in.
func (c *Core) Tick(now time.Time) []Effect {
	var lapsed []*fleet.Lease // of cells still leased under them
	for _, l := range c.leases.Expire(now) {
		c.leaseExpiry.Inc()
		if r, ok := c.inflight[l.Key]; ok && r.j.ID == l.JobID && r.c.State == StateLeased {
			r.c.span.Event("lease-expired", trace.A("lease", l.ID))
			c.hLeaseDuration.Observe(now.Sub(r.c.leasedAt).Milliseconds())
			lapsed = append(lapsed, l)
		}
	}
	for id, seen := range c.workers {
		if now.Sub(seen) > c.cfg.LeaseTTL {
			delete(c.workers, id)
		}
	}
	for _, l := range lapsed {
		r := c.inflight[l.Key] // a job with a leased cell does not settle, so it is still there
		c.cellFailed(now, r.j, r.c, l.Worker,
			fmt.Sprintf("lease %s expired: worker %s silent past the %s TTL", l.ID, l.Worker, c.cfg.LeaseTTL))
		c.settleIfDue(now, r.j)
	}
	for _, j := range c.runningJobs() {
		if j.ending == "" && !j.deadline.IsZero() && !now.Before(j.deadline) {
			c.end(now, j, endTimeout)
		}
	}
	return c.take()
}

// --- cell and job settlement ---------------------------------------------------

// cellDone marks a cell finished and returns its tenant's in-flight slot.
func (c *Core) cellDone(now time.Time, j *Job, cell *Cell, cacheHit bool) {
	cell.State, cell.CacheHit, cell.Dir, cell.Err = StateDone, cacheHit, c.cfg.CellDir(cell.Key), ""
	if !cacheHit {
		c.hCellExecution.Observe(now.Sub(cell.leasedAt).Milliseconds())
	}
	if cell.Worker != "" {
		c.hLeaseDuration.Observe(now.Sub(cell.leasedAt).Milliseconds())
	}
	cell.span.End(trace.A("cache_hit", strconv.FormatBool(cacheHit)))
	cell.span = nil
	c.release(j, cell)
	j.outstanding--
	c.publish(j, cell.Index, `{"kind":"cell","state":"done","cache_hit":`+strconv.FormatBool(cacheHit)+`}`)
	c.revive(j, cell)
}

// revive takes a done cell off the quarantine list. It can be on it: a
// drain requeues a job without its cells' quarantined state, so the next
// life runs the cell once more, and so does resubmitting a failed job.
func (c *Core) revive(j *Job, cell *Cell) {
	i := slices.IndexFunc(c.dead, func(e fleet.DeadLetterEntry) bool { return e.CacheKey == cell.Key && e.JobID == j.ID })
	if i >= 0 {
		c.dead = slices.Delete(c.dead, i, i+1)
		c.persistDeadLetter()
	}
}

// cellFailed charges a cell one failed attempt: requeue with backoff, or
// quarantine once the attempt budget is spent.
func (c *Core) cellFailed(now time.Time, j *Job, cell *Cell, worker, reason string) {
	cell.Attempts++
	cell.Err, cell.Worker = reason, worker
	c.release(j, cell)
	c.persistAttempts(j)
	cell.span.End(trace.A("error", reason))
	cell.span = nil
	if cell.Attempts < c.cfg.MaxAttempts {
		delay := c.cfg.Backoff.Delay(cell.Key, cell.Attempts)
		cell.State = StateQueued
		// An ending job's cells leave the tree again when it settles.
		c.tree.Push(j.Tenant, runnable{j, cell}, now.Add(delay))
		c.cellRetries.Inc()
		j.rootSpan.Event("cell-requeued", trace.AInt("cell", int64(cell.Index)),
			trace.AInt("attempt", int64(cell.Attempts)), trace.AInt("backoff_ms", delay.Milliseconds()))
		c.publish(j, cell.Index, `{"kind":"cell","state":"requeued","attempt":`+strconv.Itoa(cell.Attempts)+
			`,"backoff_ms":`+strconv.FormatInt(delay.Milliseconds(), 10)+`,"error":`+strconv.Quote(reason)+`}`)
		c.jobLogf(j, "cell %d attempt %d failed (%s); retrying in %s", cell.Index, cell.Attempts, reason, delay)
		return
	}
	cell.State = StateQuarantined
	c.quarantined.Inc()
	entry := fleet.DeadLetterEntry{CacheKey: cell.Key, JobID: j.ID, CellIndex: cell.Index, Scheme: cell.Scheme,
		Seed: cell.Seed, Attempts: cell.Attempts, LastError: reason, LastWorker: worker, Tenant: j.Tenant}
	if i := slices.IndexFunc(c.dead, func(e fleet.DeadLetterEntry) bool { return e.CacheKey == cell.Key }); i >= 0 {
		c.dead[i] = entry
	} else {
		c.dead = append(c.dead, entry)
	}
	j.rootSpan.Event("cell-quarantined", trace.AInt("cell", int64(cell.Index)), trace.AInt("attempts", int64(cell.Attempts)))
	j.outstanding--
	c.persistDeadLetter()
	c.publish(j, cell.Index, `{"kind":"cell","state":"quarantined","attempts":`+strconv.Itoa(cell.Attempts)+`,"error":`+strconv.Quote(reason)+`}`)
	c.jobLogf(j, "cell %d quarantined after %d attempt(s): %s", cell.Index, cell.Attempts, reason)
}

// persistDeadLetter snapshots the quarantine list; an empty list is written
// as [], not null.
func (c *Core) persistDeadLetter() {
	c.emit(Effect{Kind: PersistDeadLetter, Dead: append([]fleet.DeadLetterEntry{}, c.dead...)})
}

// persistAttempts snapshots the attempt counters, so a restart resumes the
// retry budget instead of resetting it.
func (c *Core) persistAttempts(j *Job) {
	counts := make(map[string]int)
	for _, cell := range j.Cells {
		if cell.Attempts > 0 {
			counts[cell.AttemptKey()] = cell.Attempts
		}
	}
	c.emit(Effect{Kind: PersistAttempts, Job: j, Attempts: counts})
}

// end stops a running job from dispatching any further cell — Drain or its
// deadline — and settles it unless local executions are still out.
func (c *Core) end(now time.Time, j *Job, why string) {
	if j.ending == "" {
		j.ending = why
	}
	c.tree.Prune(func(r runnable) bool { return r.j == j })
	if j.localActive == 0 {
		c.settle(now, j)
	}
}

// settleIfDue settles j if the op that just ran took its last unsettled
// cell, or brought in the last local execution an ending job waited for.
func (c *Core) settleIfDue(now time.Time, j *Job) {
	if j.State == StateRunning && j.dispatched && (j.outstanding == 0 || (j.ending != "" && j.localActive == 0)) {
		c.settle(now, j)
	}
}

// settle takes a running job out of play: what is still queued or leased
// is withdrawn and the job becomes done, failed, or — drained with cells
// unfinished — queued again for the next life. Its tenant's next job is
// admitted in the same breath.
func (c *Core) settle(now time.Time, j *Job) {
	c.tree.Prune(func(r runnable) bool { return r.j == j })
	c.leases.DropJob(j.ID)
	pending, hits, quarantine := 0, 0, ""
	for _, cell := range j.Cells {
		c.release(j, cell)
		switch cell.State {
		case StateDone:
			if cell.CacheHit {
				hits++
			}
		case StateQuarantined:
			if quarantine == "" {
				quarantine = fmt.Sprintf("cell %d (%s/seed %d) quarantined after %d attempt(s): %s",
					cell.Index, cell.Scheme, cell.Seed, cell.Attempts, cell.Err)
			}
		default:
			cell.State, cell.Worker = StateQueued, ""
			pending++
		}
	}
	delete(c.running, j.Tenant)
	j.dispatched, j.outstanding = false, 0
	if j.ending == endDrain && pending > 0 {
		j.ending, j.State = "", StateQueued
		j.rootSpan.Event("job-requeued", trace.A("reason", "daemon draining"))
		c.persistAttempts(j)
		c.publish(j, -1, `{"kind":"job","state":"queued","reason":"daemon draining"}`)
		c.jobLogf(j, "requeued for the next daemon instance (drain)")
		return
	}

	if pending > 0 {
		// Out of time: what never ran is cancelled.
		for _, cell := range j.Cells {
			if cell.State == StateQueued {
				cell.State, cell.Err = StateFailed, "job cancelled"
			}
		}
		j.Err = fmt.Sprintf("job cancelled with %d cell(s) unfinished: context deadline exceeded", pending)
	}
	if quarantine != "" {
		j.Err = quarantine
	}
	if j.Err != "" {
		j.State = StateFailed
		c.jobsFailed.Inc()
	} else {
		j.State, j.CacheHit = StateDone, hits == len(j.Cells)
		c.jobsDone.Inc()
	}
	// End the root span and force-end anything a dead worker left open.
	j.rootSpan.End(trace.A("state", j.State), trace.A("cache_hit", strconv.FormatBool(j.CacheHit)))
	j.tr.EndOpen()
	c.hE2E.Observe(now.Sub(j.queuedAt).Milliseconds())
	st := c.status(j)
	c.emit(Effect{Kind: PersistStatus, Job: j, Status: st},
		Effect{Kind: WriteTrace, Job: j, Data: j.tr.JSONL()},
		Effect{Kind: RemoveMarker, Job: j, Marker: j.Marker},
		Effect{Kind: Publish, Job: j, Cell: -1, Data: FinalLine(st)},
		Effect{Kind: CloseStream, Job: j})
	j.Marker = ""
	c.jobLogf(j, "%s", st.State)
	c.admit(now)
}

// FinalLine renders the terminal job event that ends every event stream.
func FinalLine(st JobStatus) []byte {
	b := []byte(`{"kind":"job","state":`)
	b = strconv.AppendQuote(b, st.State)
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, st.CacheHit)
	if st.Error != "" {
		b = append(b, `,"error":`...)
		b = strconv.AppendQuote(b, st.Error)
	}
	return append(b, '}', '\n')
}

// emit queues effects for the op in progress; take hands them to its caller.
func (c *Core) emit(effs ...Effect) { c.out = append(c.out, effs...) }
func (c *Core) take() (out []Effect) {
	out, c.out = c.out, nil
	return out
}
func (c *Core) publish(j *Job, cell int, line string) {
	c.emit(Effect{Kind: Publish, Job: j, Cell: cell, Data: []byte(line + "\n")})
}

// jobLogf logs a line about job j: "job <id>: " and the message, then
// " trace=<id>" naming the job's trace, so a daemon log line joins with the
// job's trace.jsonl. A job recovered terminal has no trace and no suffix.
func (c *Core) jobLogf(j *Job, format string, args ...any) {
	msg := "job " + j.ID + ": " + fmt.Sprintf(format, args...)
	if id := j.TraceID(); id != "" {
		msg += " trace=" + id
	}
	c.emit(Effect{Kind: Log, Job: j, Msg: msg})
}

// Rebuilt is a quarantined cell's job as the shell rebuilt it from its
// persisted request, or the log line saying why it could not.
type Rebuilt struct {
	Job  *Job
	Body []byte
	Err  string
}

// RequeueReply is Requeue's answer: Resp on success, otherwise the refusal
// (Draining, QueueFull) with its message and the queue depth behind it.
type RequeueReply struct {
	Outcome    Outcome
	Resp       fleet.RequeueResponse
	Err        string
	QueueDepth int
}

// Requeue puts quarantined cells back in play by re-enqueueing their jobs,
// the same path as a resubmission: finished siblings come back as cache
// hits and the requeued cells get a fresh budget. keys selects entries
// (none: all); rebuilt is the shell's rebuild of each one's job, by job id.
// Keys that match nothing, or whose job is in flight or was not rebuilt,
// are reported dropped.
func (c *Core) Requeue(now time.Time, keys []string, rebuilt map[string]Rebuilt) (RequeueReply, []Effect) {
	if !c.accepting {
		c.rejected["draining"].Inc()
		return RequeueReply{Outcome: Draining}, nil
	}
	unmatched := make(map[string]bool, len(keys))
	for _, k := range keys {
		unmatched[k] = true
	}
	var resp fleet.RequeueResponse
	byJob := make(map[string][]string) // job id → its selected quarantined keys
	var order []string
	for _, e := range c.dead {
		if len(keys) > 0 && !unmatched[e.CacheKey] {
			continue
		}
		delete(unmatched, e.CacheKey)
		if _, seen := byJob[e.JobID]; !seen {
			order = append(order, e.JobID)
		}
		byJob[e.JobID] = append(byJob[e.JobID], e.CacheKey)
	}
	for _, k := range keys {
		if unmatched[k] {
			resp.Dropped = append(resp.Dropped, k)
		}
	}
	if len(order) > c.jobq.Cap()-c.jobq.Len() {
		c.rejected["queue_full"].Inc()
		return RequeueReply{Outcome: QueueFull, QueueDepth: c.jobq.Len(),
			Err: "queue full (depth " + strconv.Itoa(c.jobq.Cap()) + "): requeue would enqueue " + strconv.Itoa(len(order)) + " job(s)"}, nil
	}
	requeued := make(map[string]bool)
	for _, id := range order {
		existing, known := c.jobs[id]
		rb := rebuilt[id]
		switch {
		case known && !Terminal(existing.State):
			// Still in flight: a sibling cell may be the one running.
			resp.Dropped = append(resp.Dropped, byJob[id]...)
		case rb.Job == nil:
			if rb.Err != "" {
				c.emit(Effect{Kind: Log, Msg: rb.Err})
			}
			resp.Dropped = append(resp.Dropped, byJob[id]...)
		default:
			// Past the tenant quota: an operator outranks the admission
			// limit (global capacity was checked above).
			c.jobq.Force(rb.Job.Tenant, rb.Job)
			c.accept(now, rb.Job, rb.Body, "")
			resp.Requeued = append(resp.Requeued, id)
			requeued[id] = true
			c.jobLogf(rb.Job, "requeued from the dead letter list (%d quarantined cell(s) back in play)", len(byJob[id]))
		}
	}
	if len(requeued) > 0 {
		c.dead = slices.DeleteFunc(c.dead, func(e fleet.DeadLetterEntry) bool { return requeued[e.JobID] })
		c.persistDeadLetter()
	}
	c.admit(now)
	return RequeueReply{Outcome: Accepted, Resp: resp}, c.take()
}
