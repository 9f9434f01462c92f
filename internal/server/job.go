package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"dynaq/internal/coord"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
)

// The job and cell model lives in the coordinator core; these aliases keep
// it under the names the API has always had.
type (
	Job        = coord.Job
	Cell       = coord.Cell
	JobStatus  = coord.JobStatus
	CellStatus = coord.CellStatus
)

// Job states, then the two only cells take.
const (
	StateQueued      = coord.StateQueued
	StateRunning     = coord.StateRunning
	StateDone        = coord.StateDone
	StateFailed      = coord.StateFailed
	StateLeased      = coord.StateLeased
	StateQuarantined = coord.StateQuarantined
)

// maxCellsPerJob bounds the sweep fan-out of one submission so a single
// request cannot enqueue unbounded work.
const maxCellsPerJob = 256

// DefaultTenant is the fair-queue leaf that untagged submissions land in.
const DefaultTenant = coord.DefaultTenant

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

// buildJob validates a request and expands its cells under the given build
// version. Validation errors are *scenario.ValidationError, mapped to HTTP
// 400 by the submit handler.
func buildJob(req Request, version string) (*Job, error) {
	sweep := len(req.Schemes) > 0
	schemes := req.Schemes
	if !sweep {
		schemes = []string{""} // no override: the document's own scheme
	}
	if seeds := max(len(req.Seeds), 1); len(schemes)*seeds > maxCellsPerJob {
		return nil, &scenario.ValidationError{
			Field: "schemes",
			Msg:   fmt.Sprintf("%d×%d cells exceed the per-job limit of %d", len(schemes), seeds, maxCellsPerJob),
		}
	}
	// Each cell loads the document with its scheme swapped in, so load it
	// here the same way per swept scheme: what a worker would refuse is a
	// 400 naming that scheme. A sweep never runs the document's own scheme,
	// so the document is not held to naming one.
	var base *scenario.Runner
	for i, scheme := range schemes {
		r, err := scenario.LoadWith(req.Scenario, scenario.Overrides{Scheme: scheme})
		if sweep && scheme == "" {
			// An empty override would run the document's own scheme.
			err = &scenario.ValidationError{Field: "scheme", Msg: "empty scheme name"}
		}
		var verr *scenario.ValidationError
		if sweep && errors.As(err, &verr) && verr.Field == "scheme" {
			verr.Field = fmt.Sprintf("schemes[%d]", i)
		}
		if err != nil {
			return nil, err
		}
		base = r
	}
	if !sweep {
		schemes[0] = base.Scheme()
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []int64{base.Seed()}
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
		Tenant:       tenant,
		Scenario:     req.Scenario,
		ScenarioHash: hash,
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

// terminal reports whether a job state is final.
func terminal(state string) bool { return coord.Terminal(state) }
