// Package trace is a minimal, stdlib-only span layer for the dynaqd service
// path and the simulation engine.
//
// Spans live in one of two clock domains and the two never mix:
//
//   - Wall-time spans (Domain == DomainWall) timestamp the service path:
//     queueing, leases, execution, uploads, cache promotion. Wall time is
//     drawn exclusively through the injected Clock seam (satisfied by
//     fleet.Clock), never from the time package directly, so the
//     determinism rules that govern internal/fleet and internal/server
//     apply here unchanged.
//   - Sim-time spans (Domain == DomainSim) timestamp engine phases in
//     picoseconds of simulated time. They are emitted retroactively by the
//     experiment layer after a run completes and must never carry a
//     wall-clock-derived value.
//
// Span ids are deterministic ("<service>:<seq>"): no global rand, no wall
// clock, so traces from stepped-clock tests are byte-stable. A Tracer is
// safe for concurrent use; Span values returned by Snapshot are copies.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"dynaq/internal/units"
)

// Clock is the wall-time source for span timestamps. It is a structural
// subset of fleet.Clock so this package does not import internal/fleet;
// production code passes the audited fleet.WallClock, tests pass a
// fleet.ManualClock.
type Clock interface {
	Now() time.Time
}

// Span clock domains.
const (
	DomainWall = "wall" // Start/End are microseconds since the Unix epoch
	DomainSim  = "sim"  // Start/End are picoseconds of simulated time
)

// Attr is a single key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attribute.
func AInt(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Event is a point-in-time marker inside a span (retry, expiry, requeue).
// At is in the span's clock domain.
type Event struct {
	At    int64  `json:"at"`
	Name  string `json:"name"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Span is one timed region of the cell lifecycle. The JSON field order is
// fixed by this struct, so encoding is byte-stable.
type Span struct {
	Trace   string  `json:"trace"`
	ID      string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Service string  `json:"svc"`
	Domain  string  `json:"domain"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"` // zero while the span is still open
	Attrs   []Attr  `json:"attrs,omitempty"`
	Events  []Event `json:"events,omitempty"`
}

// Tracer collects the spans of one trace for one service. All mutation goes
// through its mutex; the clock is only consulted under it.
type Tracer struct {
	mu      sync.Mutex
	clock   Clock
	traceID string
	service string
	seq     int     // guarded by mu
	spans   []*Span // guarded by mu
}

// New builds a Tracer for one trace id as seen by one service ("coordinator",
// "worker-w1", ...). clock must be non-nil for wall spans; a Tracer used only
// for sim spans may pass nil.
func New(traceID, service string, clock Clock) *Tracer {
	return &Tracer{clock: clock, traceID: traceID, service: service}
}

// TraceID reports the trace id this Tracer stamps on every span.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// newSpanLocked appends a fresh span and returns it. Caller holds t.mu.
func (t *Tracer) newSpanLocked(name, parent, domain string, start int64, attrs []Attr) *Span {
	t.seq++
	s := &Span{
		Trace:   t.traceID,
		ID:      t.service + ":" + strconv.Itoa(t.seq),
		Parent:  parent,
		Name:    name,
		Service: t.service,
		Domain:  domain,
		Start:   start,
		Attrs:   append([]Attr(nil), attrs...),
	}
	t.spans = append(t.spans, s)
	return s
}

// Start opens a wall-time span. parent may be empty for a root span. The
// returned SpanRef (and every SpanRef method) is safe to use on a nil
// receiver, so call sites can thread an optional span without guards.
func (t *Tracer) Start(name, parent string, attrs ...Attr) *SpanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, parent, DomainWall, t.clock.Now().UnixMicro(), attrs)
	return &SpanRef{t: t, s: s}
}

// WallSpan records an already-finished wall-time span from explicit
// timestamps (used when the region straddled work done before the owning
// span was identified, e.g. absorbing an upload before the lease lookup).
// It returns the new span id.
func (t *Tracer) WallSpan(name, parent string, start, end time.Time, attrs ...Attr) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, parent, DomainWall, start.UnixMicro(), attrs)
	s.End = end.UnixMicro()
	if s.End < s.Start {
		s.End = s.Start
	}
	return s.ID
}

// SimSpan records a finished sim-time span ([start,end] in simulated time).
// It is the bridge the engine uses to report scenario phases; a wall-clock
// value must never be passed as start or end. It returns the new span id.
func (t *Tracer) SimSpan(name, parent string, start, end units.Time, attrs ...Attr) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, parent, DomainSim, int64(start), attrs)
	s.End = int64(end)
	if s.End < s.Start {
		s.End = s.Start
	}
	return s.ID
}

// Absorb merges spans recorded by another service (a worker upload) into
// this trace. Trace ids are rewritten to this Tracer's id so a stray or
// stale uploader cannot fork the trace.
func (t *Tracer) Absorb(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range spans {
		s := spans[i] // copy
		s.Trace = t.traceID
		t.spans = append(t.spans, &s)
	}
}

// EndOpen force-ends every span still open at now, stamping a "truncated"
// event on each. Called when a job reaches a terminal state so the stored
// trace always satisfies the every-span-ended invariant, even after a
// worker died mid-lease.
func (t *Tracer) EndOpen() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now().UnixMicro()
	for _, s := range t.spans {
		if s.Domain == DomainWall && s.End == 0 {
			s.Events = append(s.Events, Event{At: now, Name: "truncated"})
			s.End = now
		}
	}
}

// Snapshot returns a deep copy of all spans, sorted by (Start, ID) so the
// encoding is stable regardless of absorb interleaving.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		c := *s
		c.Attrs = append([]Attr(nil), s.Attrs...)
		c.Events = append([]Event(nil), s.Events...)
		out[i] = c
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// JSONL renders a snapshot as JSON lines (one span per line).
func (t *Tracer) JSONL() []byte {
	var buf []byte
	for _, s := range t.Snapshot() {
		line, err := json.Marshal(s)
		if err != nil {
			continue // fixed struct: cannot happen
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf
}

// SpanRef is a handle on an open wall-time span. All methods are no-ops on
// a nil receiver so tracing stays optional at every call site.
type SpanRef struct {
	t *Tracer
	s *Span
}

// ID reports the span id ("" for a nil ref).
func (r *SpanRef) ID() string {
	if r == nil {
		return ""
	}
	return r.s.ID
}

// Tracer reports the owning Tracer (nil for a nil ref).
func (r *SpanRef) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.t
}

// Child opens a wall-time span parented to r.
func (r *SpanRef) Child(name string, attrs ...Attr) *SpanRef {
	if r == nil {
		return nil
	}
	return r.t.Start(name, r.s.ID, attrs...)
}

// SimSpan records a finished sim-time child span under r.
func (r *SpanRef) SimSpan(name string, start, end units.Time, attrs ...Attr) string {
	if r == nil {
		return ""
	}
	return r.t.SimSpan(name, r.s.ID, start, end, attrs...)
}

// Event stamps a point-in-time event on the span at the clock's now.
func (r *SpanRef) Event(name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	r.s.Events = append(r.s.Events, Event{
		At:    r.t.clock.Now().UnixMicro(),
		Name:  name,
		Attrs: append([]Attr(nil), attrs...),
	})
}

// Annotate appends attributes to the span.
func (r *SpanRef) Annotate(attrs ...Attr) {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	r.s.Attrs = append(r.s.Attrs, attrs...)
}

// End closes the span at the clock's now, appending attrs first. Ending an
// already-ended span is a no-op (EndOpen may have raced a late completion).
func (r *SpanRef) End(attrs ...Attr) {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.s.End != 0 {
		return
	}
	r.s.Attrs = append(r.s.Attrs, attrs...)
	r.s.End = r.t.clock.Now().UnixMicro()
	if r.s.End < r.s.Start {
		r.s.End = r.s.Start
	}
}

// ParseJSONL decodes spans from JSON-lines form (the trace.jsonl artifact
// and the CompleteRequest spans payload). Blank lines are skipped.
func ParseJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeJSONL writes spans in JSON-lines form.
func EncodeJSONL(w io.Writer, spans []Span) error {
	for i := range spans {
		line, err := json.Marshal(&spans[i])
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
