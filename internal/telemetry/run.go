package telemetry

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"dynaq/internal/units"
)

// Artifact file names inside a run directory.
const (
	EventsFile     = "events.jsonl"
	MetricsFile    = "metrics.jsonl"
	ManifestFile   = "manifest.json"
	PortEventsFile = "port_events.jsonl"
	ScenarioFile   = "scenario.json" // the scenario document the run's hash names
	OutcomeFile    = "outcome.json"  // the run's result, as scenario.EncodeOutcome writes it
)

// Manifest identifies a run so its artifacts can be audited and compared:
// which tool produced it, from what scenario (content hash), with what seed,
// scheme, and command line. It deliberately carries no wall-clock timestamp
// — a manifest is a pure function of the run's inputs and outcome, so two
// identical (scenario, seed) runs produce identical manifest bytes.
type Manifest struct {
	Tool         string
	Version      string // build stamp (dynaq.Version); part of a cached result's identity
	ScenarioHash string
	Seed         int64
	Scheme       string
	// Engine is the simulation fidelity ("packet", "flow", "hybrid"); the
	// empty string is written as "packet". Part of a cached result's
	// identity: the same scenario at another fidelity is another result.
	Engine string
	Args   []string
}

// SummaryEntry is one final-summary key/value pair; values are
// pre-formatted strings so the manifest encoding never touches
// float-formatting paths.
type SummaryEntry struct {
	Key   string
	Value string
}

// Hash returns the hex SHA-256 of data — the scenario content hash recorded
// in manifests.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// EventWriter receives sim-time-keyed structured events. *Run implements
// it; samplers and recorders accept the interface so they can be tested
// against an in-memory sink.
type EventWriter interface {
	// Event appends one event at simulated time at. Fields are encoded in
	// call order, after the fixed "t_ps" and "kind" fields.
	Event(at units.Time, kind string, fields ...Field)
}

// Field is one key/value pair of an event. Val must be an int, int64,
// uint64, bool, string, or []int64; anything else panics at encode time
// (events are written on hot-ish paths, so surprises must be loud and
// immediate, not deferred to artifact diffing).
type Field struct {
	Key string
	Val any
}

// F builds a Field.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Run binds a registry to an artifact directory: a streaming events.jsonl,
// a final metrics.jsonl registry dump, and a manifest.json.
type Run struct {
	dir     string
	reg     *Registry
	man     Manifest
	summary map[string]string

	f   *os.File
	buf *bufio.Writer
	tee func(line []byte)
	err error // first write error, surfaced at Close
}

// NewRun creates the artifact directory (and parents) and opens the event
// stream. The manifest is written at Close, after the summary is complete.
func NewRun(dir string, man Manifest) (*Run, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Run{
		dir:     dir,
		reg:     NewRegistry(),
		man:     man,
		summary: make(map[string]string),
		f:       f,
		buf:     bufio.NewWriterSize(f, 1<<16),
	}, nil
}

// Dir returns the artifact directory.
func (r *Run) Dir() string { return r.dir }

// Registry returns the run's metric registry.
func (r *Run) Registry() *Registry { return r.reg }

// Tee registers fn to receive a copy of every encoded event line (including
// the trailing newline) as it is written — the live-progress subscription
// hook dynaqd streams job events from. fn runs synchronously on the
// simulation goroutine and must not retain the slice past the call; copy if
// it needs to hand the line to another goroutine.
func (r *Run) Tee(fn func(line []byte)) { r.tee = fn }

// Event implements EventWriter: one AppendEvent line.
func (r *Run) Event(at units.Time, kind string, fields ...Field) {
	if r.err != nil {
		return
	}
	b := AppendEvent(nil, at, kind, fields...)
	if r.tee != nil {
		r.tee(b)
	}
	if _, err := r.buf.Write(b); err != nil {
		r.err = err
	}
}

// AppendEvent appends one event's JSONL line to b: the fixed leading fields
// {"t_ps":...,"kind":...}, then fields in call order, then a newline.
func AppendEvent(b []byte, at units.Time, kind string, fields ...Field) []byte {
	b = append(b, `{"t_ps":`...)
	b = strconv.AppendInt(b, int64(at), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, kind)
	for _, f := range fields {
		b = append(b, ',')
		b = strconv.AppendQuote(b, f.Key)
		b = append(b, ':')
		b = appendValue(b, f.Val)
	}
	return append(b, '}', '\n')
}

// appendValue encodes one event field value; the accepted types keep every
// artifact byte a deterministic function of the simulation state.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case bool:
		return strconv.AppendBool(b, x)
	case string:
		return strconv.AppendQuote(b, x)
	case []int64:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, e, 10)
		}
		return append(b, ']')
	default:
		panic(fmt.Sprintf("telemetry: unsupported event field type %T", v))
	}
}

// Summarize records one final-summary entry for the manifest (last write
// per key wins; entries are emitted sorted by key).
func (r *Run) Summarize(key, value string) { r.summary[key] = value }

// Close flushes the event stream, dumps the registry to metrics.jsonl, and
// writes the manifest. It reports the first error encountered anywhere in
// the run's lifetime.
func (r *Run) Close() error {
	flushErr := r.buf.Flush()
	closeErr := r.f.Close()
	if r.err == nil {
		r.err = flushErr
	}
	if r.err == nil {
		r.err = closeErr
	}

	mf, err := os.Create(filepath.Join(r.dir, MetricsFile))
	if err == nil {
		werr := r.reg.WriteJSONL(mf)
		cerr := mf.Close()
		if err = werr; err == nil {
			err = cerr
		}
	}
	if r.err == nil {
		r.err = err
	}

	summary := make([]SummaryEntry, 0, len(r.summary))
	for k, v := range r.summary {
		summary = append(summary, SummaryEntry{Key: k, Value: v})
	}
	sort.Slice(summary, func(i, j int) bool { return summary[i].Key < summary[j].Key })
	if err := WriteManifest(r.dir, r.man, summary); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// WriteManifest writes manifest.json into dir with a fixed, hand-encoded
// field order. It is exported so cmd/experiments can emit per-figure
// manifests without a full Run.
func WriteManifest(dir string, man Manifest, summary []SummaryEntry) error {
	var b []byte
	b = append(b, "{\n  \"tool\": "...)
	b = strconv.AppendQuote(b, man.Tool)
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendQuote(b, man.Version)
	b = append(b, ",\n  \"scenario_hash\": "...)
	b = strconv.AppendQuote(b, man.ScenarioHash)
	b = append(b, ",\n  \"seed\": "...)
	b = strconv.AppendInt(b, man.Seed, 10)
	b = append(b, ",\n  \"scheme\": "...)
	b = strconv.AppendQuote(b, man.Scheme)
	b = append(b, ",\n  \"engine\": "...)
	engine := man.Engine
	if engine == "" {
		engine = "packet"
	}
	b = strconv.AppendQuote(b, engine)
	b = append(b, ",\n  \"args\": ["...)
	for i, a := range man.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendQuote(b, a)
	}
	b = append(b, "],\n  \"summary\": {"...)
	for i, e := range summary {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = strconv.AppendQuote(b, e.Key)
		b = append(b, ": "...)
		b = strconv.AppendQuote(b, e.Value)
	}
	if len(summary) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "}\n}\n"...)
	return os.WriteFile(filepath.Join(dir, ManifestFile), b, 0o644)
}
