package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"dynaq/internal/coord"
	"dynaq/internal/fleet"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// maxBodyBytes bounds a POST /v1/jobs body: a scenario document at its own
// limit plus sweep-wrapper overhead.
const maxBodyBytes = scenario.MaxDocumentBytes + 64*1024

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/leases", s.handleLease)
	s.mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleComplete)
	s.mux.HandleFunc("GET /v1/deadletter", s.handleDeadLetter)
	s.mux.HandleFunc("POST /v1/deadletter/requeue", s.handleRequeue)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// errorBody is every non-2xx JSON response. Field carries the offending
// scenario field of a validation failure; the tenant/queue fields show a
// rejected client which limit it hit and how deep the backlog behind it is.
type errorBody struct {
	Error       string `json:"error"`
	Field       string `json:"field,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	TenantDepth int    `json:"tenant_depth,omitempty"`
	TenantQuota int    `json:"tenant_quota,omitempty"`
	QueueDepth  int    `json:"queue_depth,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// handleSubmit accepts a scenario (or sweep wrapper), expands it and
// enqueues it under the submitting tenant: the X-Dynaq-Tenant header, else
// the body's tenant field, else "default". Responses: 202 with the job
// status when enqueued or already in flight; 400 on validation failure; 413
// on an oversized body; 503 when draining, the tenant's quota is spent, or
// the shared queue is full. Resubmitting terminal work re-enqueues it under
// the same content-addressed id: done cells come back as cache hits.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.countReject("invalid")
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "body exceeds " + strconv.FormatInt(tooLarge.Limit, 10) + " bytes"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	req := parseRequest(body)
	if tenant := r.Header.Get("X-Dynaq-Tenant"); tenant != "" {
		req.Tenant = tenant
	}
	j, err := buildJob(req, s.cfg.Version)
	if err != nil {
		s.countReject("invalid")
		var verr *scenario.ValidationError
		if errors.As(err, &verr) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: verr.Error(), Field: verr.Field})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	var reply coord.SubmitReply
	s.do(func(c *coord.Core, now time.Time) (effs []coord.Effect) {
		reply, effs = c.Submit(now, j, body, r.Header.Get("X-Dynaq-Trace"))
		return effs
	})
	switch reply.Outcome {
	case coord.Draining:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining: not accepting jobs"})
	case coord.TenantFull, coord.QueueFull:
		// A full queue is transient: tell well-behaved clients when to come
		// back, scaled to the backlog that actually blocks them — their own
		// leaf for a quota rejection, the shared queue otherwise.
		depth := reply.TenantDepth
		if reply.Outcome == coord.QueueFull {
			depth = reply.QueueDepth
		}
		w.Header().Set("Retry-After", retryAfterForDepth(depth))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error:       reply.Err,
			Tenant:      reply.Tenant,
			TenantDepth: reply.TenantDepth,
			TenantQuota: reply.TenantQuota,
			QueueDepth:  reply.QueueDepth,
		})
	default: // accepted, or identical work already queued or running
		w.Header().Set("X-Dynaq-Trace", reply.TraceID)
		w.Header().Set("Location", "/v1/jobs/"+reply.Status.ID)
		writeJSON(w, http.StatusAccepted, reply.Status)
	}
}

// retryAfterForDepth derives a Retry-After hint from how much of a backlog
// stands between the caller and free capacity: one second for a shallow
// queue, growing with depth, clamped to 30s so clients keep probing.
func retryAfterForDepth(depth int) string {
	secs := 1 + depth/8
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

func (s *Server) countReject(reason string) {
	s.do(func(c *coord.Core, _ time.Time) []coord.Effect {
		c.Reject(reason)
		return nil
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var out []JobStatus
	s.read(func(c *coord.Core, _ time.Time) { out = c.List() })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var st JobStatus
	var ok bool
	s.read(func(c *coord.Core, _ time.Time) { st, ok = c.Status(r.PathValue("id")) })
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress as chunked JSONL (NDJSON): each
// line is one telemetry event wrapped with the producing cell index, and
// the stream ends with a {"cell":-1,"kind":"job",...} terminal line. For a
// terminal job the stored events.jsonl of every cell is replayed; for a
// live job the subscriber receives events from attach time onward.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe in the same lock hold that snapshots the state, so no line
	// is lost between the terminal check and the attach. Jobs recovered
	// terminal have no stream; they replay.
	s.mu.Lock()
	st, ok := s.core.Status(id)
	var ch <-chan []byte
	if bc := s.streams[id]; bc != nil {
		ch = bc.subscribe()
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if terminal(st.State) {
		for _, c := range st.Cells {
			if c.ArtifactDir != "" {
				s.replayCellEvents(w, c)
			}
		}
		writeFinal(w, st)
		flush()
		return
	}

	w.Write([]byte(`{"cell":-1,"kind":"job","state":` + strconv.Quote(st.State) + "}\n"))
	flush()
	for {
		select {
		case line, open := <-ch:
			if !open {
				s.read(func(c *coord.Core, _ time.Time) { st, _ = c.Status(id) })
				writeFinal(w, st)
				flush()
				return
			}
			w.Write(line)
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeFinal emits the terminal job line with the cell -1 wrapper.
func writeFinal(w io.Writer, st JobStatus) {
	line := coord.FinalLine(st)
	b := append([]byte(`{"cell":-1,`), line[1:]...)
	w.Write(b)
}

// replayCellEvents streams one cached cell's events.jsonl, wrapping each
// stored line with the cell index exactly as the live path does.
func (s *Server) replayCellEvents(w io.Writer, c CellStatus) {
	f, err := os.Open(filepath.Join(c.ArtifactDir, telemetry.EventsFile))
	if err != nil {
		return
	}
	defer f.Close()
	prefix := append([]byte(`{"cell":`), strconv.AppendInt(nil, int64(c.Index), 10)...)
	prefix = append(prefix, ',')
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) < 2 || line[0] != '{' {
			continue
		}
		w.Write(prefix)
		w.Write(line[1:])
		w.Write([]byte{'\n'})
	}
}

// handleMetrics renders the server registry (job/queue/cache counters) plus
// the cumulative per-series sim totals absorbed from completed cells, all
// in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var body []byte
	var err error
	s.read(func(c *coord.Core, now time.Time) { body, err = c.Metrics(now) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var h coord.Health
	s.read(func(c *coord.Core, now time.Time) { h = c.Health(now) })
	state := "serving"
	if !h.Accepting {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"state":           state,
		"version":         s.cfg.Version,
		"queue_depth":     h.QueueDepth,
		"jobs_running":    h.Running,
		"workers_active":  h.Workers,
		"leases_live":     h.Leases,
		"deadletter_size": h.DeadLetter,
	})
}

// --- the worker fleet API: leases, completions, the dead-letter list -----------

// maxCompleteBytes bounds a completion upload body: the artifact byte cap
// plus base64 expansion and JSON envelope overhead.
const maxCompleteBytes = maxUploadBytes*3/2 + 64*1024

// handleLease hands the fair tree's next ready cell to a pulling worker.
// Polling at all registers the worker as active, which switches the
// coordinator out of local-execution fallback. 204 means no work; the
// Retry-After hint (when present) is the time until the next requeued
// cell's backoff elapses.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req fleet.LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "lease request needs a worker id"})
		return
	}
	var grant *fleet.LeaseGrant
	var retryAfter string
	s.do(func(c *coord.Core, now time.Time) (effs []coord.Effect) {
		grant, retryAfter, effs = c.Lease(now, req.Worker)
		return effs
	})
	if grant == nil {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

// handleHeartbeat renews a live lease; 410 means the lease expired (its
// cell already requeued) and renewal is pointless.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var ttl int64
	var ok bool
	s.do(func(c *coord.Core, now time.Time) []coord.Effect {
		ttl, ok = c.Heartbeat(now, id)
		return nil
	})
	if !ok {
		writeJSON(w, http.StatusGone, errorBody{Error: "lease " + id + " is not live"})
		return
	}
	writeJSON(w, http.StatusOK, fleet.HeartbeatResponse{TTLMillis: ttl})
}

// handleComplete settles a leased cell. Uploaded artifact bytes are
// absorbed into the content-addressed cache FIRST, regardless of lease
// validity — the cache key fully determines the bytes, so a late upload
// from an expired lease is still exactly what the requeued attempt needs
// (it will cache-hit instead of re-running). Only then is the lease itself
// settled: 200 if it was live, 410 if it had already lapsed.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req fleet.CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCompleteBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding completion: " + err.Error()})
		return
	}
	up := coord.Upload{Worker: req.Worker, Err: req.Error, Files: len(req.Files) > 0, Spans: req.Spans}
	if req.Error == "" && len(req.Files) > 0 {
		var err error
		if req.CacheKey == "" {
			err = errors.New("completion upload lacks a cache key")
		} else {
			up.AbsorbStart = s.clock.Now()
			err = s.absorbUpload(req.CacheKey, req.Files)
			up.AbsorbEnd = s.clock.Now()
		}
		if err != nil {
			up.AbsorbErr = err.Error()
			s.logf("lease %s: rejecting artifact upload: %v", id, err)
		}
	}
	var live bool
	s.do(func(c *coord.Core, now time.Time) (effs []coord.Effect) {
		// The lease names the cell; the completion is good only if that
		// cell's artifact — not whatever key the worker quoted — is cached.
		if key := c.LeaseKey(id); key != "" {
			up.Cached = s.artifactCached(key)
		}
		live, effs = c.Complete(now, id, up)
		return effs
	})
	if !live {
		writeJSON(w, http.StatusGone, errorBody{Error: "lease " + id + " is not live; artifact absorbed if uploaded"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleDeadLetter lists quarantined cells.
func (s *Server) handleDeadLetter(w http.ResponseWriter, r *http.Request) {
	var out fleet.DeadLetterList
	s.read(func(c *coord.Core, _ time.Time) { out.Cells = c.DeadLetter() })
	writeJSON(w, http.StatusOK, out)
}

// handleRequeue puts quarantined cells back in play by re-enqueueing their
// owning jobs from the persisted request bytes — the resubmission path, so
// finished sibling cells come back as cache hits and the requeued cells get
// a fresh attempt budget. Keys that match nothing, or whose job is still in
// flight, are reported dropped.
//
// The jobs are rebuilt before the one locked op, from a snapshot of the
// list: parsing scenarios under the lock would stall every lease and
// heartbeat. An entry quarantined in between is reported dropped.
func (s *Server) handleRequeue(w http.ResponseWriter, r *http.Request) {
	var req fleet.RequeueRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil && err != io.EOF {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding requeue request: " + err.Error()})
		return
	}
	var dead []fleet.DeadLetterEntry
	s.read(func(c *coord.Core, _ time.Time) { dead = c.DeadLetter() })
	rebuilt := make(map[string]coord.Rebuilt)
	for _, e := range dead {
		if _, seen := rebuilt[e.JobID]; !seen && (len(req.Keys) == 0 || slices.Contains(req.Keys, e.CacheKey)) {
			rebuilt[e.JobID] = s.rebuildQuarantined(e)
		}
	}

	var reply coord.RequeueReply
	s.do(func(c *coord.Core, now time.Time) (effs []coord.Effect) {
		reply, effs = c.Requeue(now, req.Keys, rebuilt)
		return effs
	})
	switch reply.Outcome {
	case coord.Draining:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining: not accepting jobs"})
	case coord.QueueFull:
		w.Header().Set("Retry-After", retryAfterForDepth(reply.QueueDepth))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reply.Err, QueueDepth: reply.QueueDepth})
	default:
		writeJSON(w, http.StatusOK, reply.Resp)
	}
}

// rebuildQuarantined rebuilds the job that owns dead-letter entry e from
// its persisted request, under e's tenant.
func (s *Server) rebuildQuarantined(e fleet.DeadLetterEntry) coord.Rebuilt {
	body, err := os.ReadFile(filepath.Join(s.jobDir(e.JobID), "request.json"))
	if err != nil {
		return coord.Rebuilt{Err: "deadletter: job " + e.JobID + " request unreadable: " + err.Error()}
	}
	j, err := rebuildJob(body, e.JobID, e.Tenant, s.cfg.Version)
	if err != nil {
		return coord.Rebuilt{Err: "deadletter: job " + e.JobID + " no longer validates: " + err.Error()}
	}
	return coord.Rebuilt{Job: j, Body: body}
}

// traceFileName is the per-job trace artifact under jobs/<id>/: every job
// carries a trace whose spans follow the cell lifecycle, with worker spans
// absorbed from completion uploads and engine sim-time spans beneath them.
// It lives OUTSIDE the content-addressed cache, whose artifacts must stay
// byte-identical whether or not tracing ran.
const traceFileName = "trace.jsonl"

// handleTrace serves GET /v1/jobs/{id}/trace: the job's span log as raw
// trace JSONL, or chrome://tracing / Perfetto-loadable with ?format=chrome.
// Live jobs serve the tracer's snapshot (open spans have end=0); terminal
// jobs the persisted trace.jsonl, which survives daemon restarts.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var j *Job
	var ok, isTerminal bool
	s.read(func(c *coord.Core, _ time.Time) {
		if j, ok = c.Job(id); ok {
			isTerminal = terminal(j.State)
		}
	})
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}

	// Terminal jobs serve what was persisted; one recovered terminal has
	// no tracer, so nothing else.
	raw := j.TraceJSONL()
	if isTerminal {
		if data, err := os.ReadFile(filepath.Join(s.jobDir(id), traceFileName)); err == nil {
			raw = data
		}
	}
	if len(raw) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no trace recorded for job " + id})
		return
	}
	if tid := j.TraceID(); tid != "" {
		w.Header().Set("X-Dynaq-Trace", tid)
	}

	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl", "raw":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(raw)
	case "chrome", "perfetto":
		spans, err := trace.ParseJSONL(bytes.NewReader(raw))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "parsing stored trace: " + err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, spans)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown format " + strconv.Quote(format) + " (want jsonl or chrome)"})
	}
}
