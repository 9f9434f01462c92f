// Package scenario loads experiment descriptions from JSON so scenarios
// can be versioned and shared without recompiling — the configuration
// format consumed by `dynaqsim -config`.
//
// Two kinds are supported:
//
//	{"kind": "static", ...}  → experiment.RunStatic (throughput/fairness)
//	{"kind": "fct", ...}     → experiment.RunDynamic (FCT benchmarks)
//
// See testdata in scenario_test.go for complete documents.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"

	"dynaq/internal/experiment"
	"dynaq/internal/faults"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// Spec mirrors experiment.QueueSpec in JSON form.
type Spec struct {
	Class       int     `json:"class"`
	Flows       int     `json:"flows"`
	Hosts       int     `json:"hosts,omitempty"`
	SharedHosts int     `json:"shared_hosts,omitempty"`
	OwnSink     bool    `json:"own_sink,omitempty"`
	SizeB       int64   `json:"size_bytes,omitempty"`
	StartS      float64 `json:"start_at_s,omitempty"`
	SpacingS    float64 `json:"spacing_s,omitempty"`
	StopS       float64 `json:"stop_at_s,omitempty"`
	Ctrl        string  `json:"ctrl,omitempty"` // reno | cubic | dctcp | ecn-reno | timely
	ECN         bool    `json:"ecn,omitempty"`
}

// Document is the top-level JSON scenario. A key tagged read:"X" is read
// only by a run of kind X or on topology X; checkRead refuses it elsewhere.
type Document struct {
	Kind string `json:"kind"` // static | fct

	Scheme   string  `json:"scheme"`
	Sched    string  `json:"sched,omitempty"` // drr | wrr | spq+drr
	RateGbps float64 `json:"rate_gbps"`
	BufferB  int64   `json:"buffer_bytes"`
	Queues   int     `json:"queues"`
	Weights  []int64 `json:"weights,omitempty"`
	RTTUs    float64 `json:"rtt_us"`
	MTU      int64   `json:"mtu,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	MinRTOMs float64 `json:"min_rto_ms,omitempty"`
	// Scheme constants the schemes otherwise derive from the link.
	PerQueueKB  int64   `json:"per_queue_k_bytes,omitempty"`
	TCNTargetUs float64 `json:"tcn_target_us,omitempty"`

	// Static fields.
	DurationS   float64 `json:"duration_s,omitempty" read:"static"`
	SampleMs    float64 `json:"sample_ms,omitempty" read:"static"`
	TraceStride int     `json:"queue_trace_stride,omitempty" read:"static"`
	Specs       []Spec  `json:"specs,omitempty" read:"static"`

	// FCT fields.
	Topo         string   `json:"topo,omitempty" read:"fct"` // star | leafspine | fattree
	Servers      int      `json:"servers,omitempty" read:"star"`
	Leaves       int      `json:"leaves,omitempty" read:"leafspine"`
	Spines       int      `json:"spines,omitempty" read:"leafspine"`
	HostsPerLeaf int      `json:"hosts_per_leaf,omitempty" read:"leafspine"`
	FatTreeK     int      `json:"k,omitempty" read:"fattree"` // fat-tree arity (topo=fattree)
	Load         float64  `json:"load,omitempty" read:"fct"`
	Flows        int      `json:"flows,omitempty" read:"fct"`
	Workloads    []string `json:"workloads,omitempty" read:"fct"`
	DCTCP        bool     `json:"dctcp,omitempty" read:"fct"`
	// RequestResponse runs every flow as the response to a request (§V-A2).
	RequestResponse bool    `json:"request_response,omitempty" read:"fct"`
	MaxRuntimeS     float64 `json:"max_runtime_s,omitempty" read:"fct"`

	// Engine selects the fct simulation fidelity: "packet" (default),
	// "flow" (fluid fast path) or "hybrid" (fluid with selective
	// packetization of congested ports). Every topology runs on every
	// engine; faults/guard/failure-aware require the packet engine.
	Engine string `json:"engine,omitempty"`

	// Fault injection (both kinds). Targets are resolved against the
	// topology's fault registry: "tor:<i>" / "host<i>:nic" / "tor" on the
	// star, "leaf<l>:spine<s>" / "spine<s>:leaf<l>" / "leaf<l>:host<h>" /
	// "host<h>:nic" and the whole-switch groups "leaf<l>" / "spine<s>" on
	// the leaf-spine (topology.Network.FaultRegistry lists the fat tree's).
	Faults []faults.Spec `json:"faults,omitempty"`
	// Guard arms the runtime invariant guardrail on every switch port.
	Guard bool `json:"guard,omitempty"`
	// FailureAware enables failure-aware ECMP (fct only).
	FailureAware bool `json:"failure_aware,omitempty" read:"fct"`
	// DetectMs is the failure-detection delay in milliseconds, read only
	// with FailureAware set.
	DetectMs float64 `json:"detection_delay_ms,omitempty" read:"fct"`
}

// MaxDocumentBytes bounds the scenario documents Load accepts. Scenarios
// are small hand-written configurations (the largest shipped one is under
// 2KB); the limit exists for untrusted input paths — dynaqd's POST /v1/jobs
// — where an unbounded body would otherwise be decoded at full size before
// any validation runs.
const MaxDocumentBytes = 1 << 20

// ValidationError is a typed Load failure suitable for an HTTP 400 body:
// Field names the offending JSON field (empty when the document itself
// failed to decode) and Msg says what was wrong with it.
type ValidationError = experiment.ConfigError

// invalidf builds a ValidationError for field with a formatted message.
func invalidf(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Result is what a loaded scenario produces when run.
type Result struct {
	Static  *experiment.StaticResult
	Dynamic *experiment.DynamicResult
}

// Summary is the result's headline for a run manifest.
func (r *Result) Summary() []telemetry.SummaryEntry {
	if r.Static != nil {
		return r.Static.Summary()
	}
	return r.Dynamic.Summary()
}

// Runner is a validated, executable scenario: exactly one of static and
// dynamic is set, and hooks points at its embedded observers.
type Runner struct {
	doc     Document
	static  *experiment.StaticConfig
	dynamic *experiment.DynamicConfig
	hooks   *experiment.Hooks
}

// Scheme returns the scenario's scheme name (for run manifests).
func (r *Runner) Scheme() string { return r.doc.Scheme }

// Seed returns the scenario's seed.
func (r *Runner) Seed() int64 { return r.doc.Seed }

// Document returns the scenario as loaded, overrides applied.
func (r *Runner) Document() Document { return r.doc }

// Engine returns the scenario's simulation engine ("packet" unless the
// document selected a fluid fidelity). Part of a run's cache identity: the
// same document at a different fidelity is a different result.
func (r *Runner) Engine() string {
	if r.doc.Engine == "" {
		return string(experiment.EnginePacket)
	}
	return r.doc.Engine
}

// SetTelemetry attaches a telemetry run to the underlying experiment
// configuration; the caller owns (and closes) the Run.
func (r *Runner) SetTelemetry(run *telemetry.Run) { r.hooks.Telemetry = run }

// SetProgress attaches a wall-clock progress writer (typically os.Stderr).
func (r *Runner) SetProgress(w io.Writer) { r.hooks.Progress = w }

// SetTraceEvents records the last n drop/mark/evict events at a static
// scenario's bottleneck port into the result's Trace. An fct scenario has no
// single bottleneck, so it refuses.
func (r *Runner) SetTraceEvents(n int) error {
	if r.static == nil {
		return fmt.Errorf("scenario: the event trace records a static scenario's bottleneck; this one is %s", r.doc.Kind)
	}
	r.static.TraceEvents = n
	return nil
}

// SetSpans attaches a span tracer for retroactive sim-time phase spans,
// parented under the given wall-time span id (empty for a root sim span).
func (r *Runner) SetSpans(tr *trace.Tracer, parent string) {
	r.hooks.Spans, r.hooks.SpanParent = tr, parent
}

// Overrides replaces selected document fields before validation. It is the
// sweep-expansion path of dynaqd: one uploaded scenario body fans out into
// (scheme, seed) cells without re-serializing the document, so the cell's
// cache identity can stay (scenario hash, scheme, seed) with the overrides
// carried out-of-band.
type Overrides struct {
	// Scheme, when non-empty, replaces the document's scheme.
	Scheme string
	// Seed, when non-nil, replaces the document's seed.
	Seed *int64
	// Engine, when non-empty, replaces the document's engine. Callers that
	// override it must carry the engine in the cell's cache identity.
	Engine string
}

// Load parses and validates a JSON scenario.
func Load(data []byte) (*Runner, error) { return LoadWith(data, Overrides{}) }

// LoadWith parses and validates a JSON scenario after applying overrides.
// Failures are *ValidationError — callers serving untrusted input can map
// any Load error to an HTTP 400 with a structured body.
func LoadWith(data []byte, ov Overrides) (*Runner, error) {
	if len(data) > MaxDocumentBytes {
		return nil, invalidf("", "document is %d bytes, limit %d", len(data), MaxDocumentBytes)
	}
	var doc Document
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, &ValidationError{Msg: err.Error()}
	}
	if ov.Scheme != "" {
		doc.Scheme = ov.Scheme
	}
	if ov.Seed != nil {
		doc.Seed = *ov.Seed
	}
	if ov.Engine != "" {
		doc.Engine = ov.Engine
	}
	r := &Runner{doc: doc}
	if doc.RateGbps <= 0 {
		return nil, invalidf("rate_gbps", "must be positive, got %v", doc.RateGbps)
	}
	if doc.BufferB <= 0 {
		return nil, invalidf("buffer_bytes", "must be positive, got %d", doc.BufferB)
	}
	if doc.PerQueueKB < 0 {
		return nil, invalidf("per_queue_k_bytes", "must not be negative, got %d", doc.PerQueueKB)
	}
	schedKind, err := experiment.ParseSchedKind(doc.Sched)
	if err != nil {
		return nil, invalidf("sched", "unknown scheduler %q (want drr, wrr or spq+drr)", doc.Sched)
	}
	var n numbers
	cell := experiment.Cell{
		Scheme: experiment.Scheme(doc.Scheme),
		Params: experiment.SchemeParams{
			Weights:   doc.Weights,
			PerQueueK: units.ByteSize(doc.PerQueueKB),
			TCNTarget: n.seconds("tcn_target_us", doc.TCNTargetUs, doc.TCNTargetUs*1e-6),
		},
		Rate:   units.Rate(n.fit("rate_gbps", doc.RateGbps, doc.RateGbps*1e9)),
		Delay:  n.seconds("rtt_us", doc.RTTUs, doc.RTTUs/4*1e-6),
		Buffer: units.ByteSize(doc.BufferB),
		Queues: doc.Queues,
		MTU:    units.ByteSize(doc.MTU),
		MinRTO: n.seconds("min_rto_ms", doc.MinRTOMs, doc.MinRTOMs*1e-3),
		Seed:   doc.Seed,
		Faults: doc.Faults,
		Guard:  doc.Guard,
	}

	// validate is the config's Validate: what the runner would refuse on a
	// worker, checked once the document's numbers have converted.
	var validate func() error
	switch doc.Kind {
	case "static":
		if doc.Engine != "" && doc.Engine != string(experiment.EnginePacket) {
			return nil, invalidf("engine", "static scenarios run at packet level, got %q", doc.Engine)
		}
		var specs []experiment.QueueSpec
		for i, sp := range doc.Specs {
			ctrl, err := controllerByName(sp.Ctrl)
			if err != nil {
				return nil, invalidf(fmt.Sprintf("specs[%d].ctrl", i), "%v", err)
			}
			field := func(key string) string { return fmt.Sprintf("specs[%d].%s", i, key) }
			specs = append(specs, experiment.QueueSpec{
				Class:       sp.Class,
				Flows:       sp.Flows,
				Hosts:       sp.Hosts,
				SharedHosts: sp.SharedHosts,
				OwnSink:     sp.OwnSink,
				Size:        units.ByteSize(sp.SizeB),
				Start:       n.seconds(field("start_at_s"), sp.StartS, sp.StartS),
				Spacing:     n.seconds(field("spacing_s"), sp.SpacingS, sp.SpacingS),
				StopAt:      n.seconds(field("stop_at_s"), sp.StopS, sp.StopS),
				Ctrl:        ctrl,
				ECN:         sp.ECN,
			})
		}
		r.static = &experiment.StaticConfig{
			Cell:        cell,
			Sched:       schedKind,
			Specs:       specs,
			Duration:    n.seconds("duration_s", doc.DurationS, doc.DurationS),
			SampleEvery: n.seconds("sample_ms", doc.SampleMs, doc.SampleMs*1e-3),
			TraceStride: doc.TraceStride,
		}
		r.hooks, validate = &r.static.Hooks, r.static.Validate
	case "fct":
		if doc.Load <= 0 || doc.Load > 1 {
			return nil, invalidf("load", "must be in (0, 1], got %v", doc.Load)
		}
		engine, err := experiment.ParseEngineMode(doc.Engine)
		if err != nil {
			return nil, invalidf("engine", "unknown engine %q (want packet, flow or hybrid)", doc.Engine)
		}
		var cdfs []*workload.CDF
		for i, name := range doc.Workloads {
			cdf, err := workload.ByName(name)
			if err != nil {
				return nil, invalidf(fmt.Sprintf("workloads[%d]", i), "%v", err)
			}
			cdfs = append(cdfs, cdf)
		}
		r.dynamic = &experiment.DynamicConfig{
			Cell:            cell,
			Engine:          engine,
			Topo:            experiment.TopoKind(doc.Topo),
			Servers:         doc.Servers,
			Leaves:          doc.Leaves,
			Spines:          doc.Spines,
			HostsPerLeaf:    doc.HostsPerLeaf,
			FatTreeK:        doc.FatTreeK,
			Load:            doc.Load,
			Flows:           doc.Flows,
			Workloads:       cdfs,
			DCTCP:           doc.DCTCP,
			RequestResponse: doc.RequestResponse,
			MaxRuntime:      n.seconds("max_runtime_s", doc.MaxRuntimeS, doc.MaxRuntimeS),
			FailureAware:    doc.FailureAware,
			DetectionDelay:  n.seconds("detection_delay_ms", doc.DetectMs, doc.DetectMs*1e-3),
		}
		r.hooks, validate = &r.dynamic.Hooks, r.dynamic.Validate
	default:
		return nil, invalidf("kind", "unknown kind %q (want static or fct)", doc.Kind)
	}
	if n.err != nil {
		return nil, n.err
	}
	if err := validate(); err != nil {
		return nil, err
	}
	if err := checkRead(doc); err != nil {
		return nil, err
	}
	return r, nil
}

// numbers converts a document's float keys to the int64 units a run counts
// in, picoseconds and bits per second, and keeps the first key whose
// converted value is negative or does not fit an int64.
type numbers struct{ err error }

// fit checks key's value v, which is x in its int64 unit, and returns x.
func (n *numbers) fit(key string, v, x float64) float64 {
	switch {
	case n.err != nil:
	case x < 0:
		n.err = invalidf(key, "must not be negative, got %v", v)
	case x >= 1<<63:
		n.err = invalidf(key, "too large for 64-bit picoseconds or bits per second, got %v", v)
	}
	return x
}

// seconds converts key's value v, which is s seconds, to a Duration.
func (n *numbers) seconds(key string, v, s float64) units.Duration {
	n.fit(key, v, s*float64(units.Second))
	return units.Seconds(s)
}

// checkRead refuses a key that doc sets and a run of its kind never reads:
// the run would ignore it, and a result cached under the document's hash
// would describe a network nobody asked for.
func checkRead(doc Document) error {
	if doc.Kind == "fct" && doc.Sched != "" && doc.Sched != string(experiment.SchedSPQDRR) {
		return invalidf("sched", "an fct scenario runs spq+drr, got %q", doc.Sched)
	}
	t, v := reflect.TypeOf(doc), reflect.ValueOf(doc)
	for i := 0; i < t.NumField(); i++ {
		readBy := t.Field(i).Tag.Get("read")
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		switch {
		case readBy == "" || v.Field(i).IsZero() || readBy == doc.Kind || readBy == doc.Topo:
		case doc.Kind == "static" || readBy == "static":
			return invalidf(key, "%s scenarios do not read it", doc.Kind)
		default: // an fct shape key of another topology; Validate accepted the topo
			return invalidf(key, "topo %s does not read it (it shapes %s)", doc.Topo, readBy)
		}
	}
	if doc.DetectMs > 0 && !doc.FailureAware { // the loader refused a negative one
		return invalidf("detection_delay_ms", "only failure-aware routing reads it, and failure_aware is not set")
	}
	return nil
}

// Run executes the scenario.
func (r *Runner) Run() (*Result, error) {
	var (
		res Result
		err error
	)
	if r.static != nil {
		res.Static, err = experiment.RunStatic(*r.static)
	} else {
		res.Dynamic, err = experiment.RunDynamic(*r.dynamic)
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// controllerByName maps a JSON name to a congestion-controller factory.
func controllerByName(name string) (func() transport.Controller, error) {
	switch name {
	case "", "reno":
		return nil, nil // sender default
	case "cubic":
		return func() transport.Controller { return transport.NewCubic() }, nil
	case "dctcp":
		return func() transport.Controller { return transport.NewDCTCP() }, nil
	case "ecn-reno":
		return func() transport.Controller { return transport.NewECNReno() }, nil
	case "timely":
		return func() transport.Controller { return transport.NewTimely() }, nil
	default:
		return nil, fmt.Errorf("unknown controller %q", name)
	}
}
