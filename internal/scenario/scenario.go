// Package scenario loads experiment descriptions from JSON so scenarios
// can be versioned and shared without recompiling — the configuration
// format consumed by `dynaqsim -config`.
//
// A document is the one description of a cell, and this package also runs
// it. Two kinds are supported:
//
//	{"kind": "static", ...}  long-lived flows on a star: throughput, fairness
//	{"kind": "fct", ...}     Poisson flows on any topology and engine: FCTs
//
// See testdata in scenario_test.go for complete documents.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/sched"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// Spec is one service queue's traffic in a static document: long-lived
// iperf-style flows that start together (with a small seeded jitter, as real
// senders would) and optionally stop at stop_at_s, or, with size_bytes and
// spacing_s, finite flows on a script, timed into StaticResult.FCT. The
// flows spread over hosts sender hosts (default 1), of which shared_hosts
// are the last sender hosts of the specs before; own_sink sinks them at a
// host of their own instead of the measured receiver.
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
	Ctrl        string  `json:"ctrl,omitempty"` // a row of transport's controller table: reno | cubic | dctcp | ecn-reno | timely
	ECN         bool    `json:"ecn,omitempty"`
}

// Document is the top-level JSON scenario. A key tagged read:"X" is read
// only by a run of kind X or on topology X; checkRead refuses it elsewhere.
type Document struct {
	Kind string `json:"kind"` // static | fct

	Scheme   string  `json:"scheme"`
	Sched    string  `json:"sched,omitempty"` // a row of sched's table: drr | wrr | spq+drr
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

// ValidationError is a refused document, suitable for an HTTP 400 body:
// Field names the document key to fix (empty when the document itself failed
// to decode) and Msg says what was wrong with it.
type ValidationError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if e.Field == "" {
		return "scenario: " + e.Msg
	}
	return "scenario: " + e.Field + ": " + e.Msg
}

// invalidf builds a ValidationError for field with a formatted message.
func invalidf(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Result is what a loaded scenario produces when run: its outputs, one kind
// by the document's. The document that produced it holds the inputs.
type Result struct {
	Static  *experiment.StaticResult  `json:",omitempty"`
	Dynamic *experiment.DynamicResult `json:",omitempty"`
}

// EncodeOutcome is a run's result as its outcome file's bytes: one line of
// JSON, identical for identical runs.
func EncodeOutcome(r *Result) ([]byte, error) {
	data, err := json.Marshal(r)
	return append(data, '\n'), err
}

// DecodeOutcome reads what EncodeOutcome wrote, as the same value. It refuses
// malformed or truncated bytes and anything not an outcome: an unknown key,
// trailing data, neither or both kinds, no FCT collector.
func DecodeOutcome(data []byte) (*Result, error) {
	var r Result
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("scenario: outcome: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: outcome: data after the outcome")
	}
	if (r.Static == nil) == (r.Dynamic == nil) ||
		r.Static != nil && r.Static.FCT == nil || r.Dynamic != nil && r.Dynamic.FCT == nil {
		return nil, fmt.Errorf("scenario: outcome: want one of Static and Dynamic, with its FCT")
	}
	return &r, nil
}

// Summary is the result's headline for a run manifest, the same keys from
// every tool that writes one.
func (r *Result) Summary() []telemetry.SummaryEntry {
	if s := r.Static; s != nil {
		return []telemetry.SummaryEntry{
			{Key: "drops", Value: strconv.FormatInt(s.Drops, 10)},
			{Key: "samples", Value: strconv.Itoa(len(s.Samples))},
		}
	}
	d := r.Dynamic
	sum := []telemetry.SummaryEntry{
		{Key: "flows_generated", Value: strconv.Itoa(d.Generated)},
		{Key: "flows_completed", Value: strconv.Itoa(d.Completed)},
		{Key: "avg_fct_us_overall", Value: strconv.FormatInt(int64(d.FCT.Avg(metrics.AllFlows)/units.Microsecond), 10)},
	}
	if fl := d.Fluid; fl != nil {
		sum = append(sum,
			telemetry.SummaryEntry{Key: "events", Value: strconv.FormatInt(d.Events, 10)},
			telemetry.SummaryEntry{Key: "recomputes", Value: strconv.FormatInt(fl.Recomputes, 10)},
			telemetry.SummaryEntry{Key: "demotions", Value: strconv.FormatInt(fl.Demotions, 10)})
	}
	return sum
}

// Runner is a validated, executable scenario: the document, what the loader
// resolved from it for the run, and the observers a caller attached.
type Runner struct {
	doc Document

	g      *fabric.Graph                 // the fabric the cell runs on
	params experiment.SchemeParams       // the scheme constants, resolved against the links
	sched  sched.Kind                    // every switch port's scheduler
	ctrls  []func() transport.Controller // static: each spec's controller
	cdfs   []*workload.CDF               // fct: each workload's flow sizes
	engine experiment.EngineMode         // fct: the fidelity

	hooks hooks
	trace *metrics.EventRecorder // static: the bottleneck's events, armed by SetTraceEvents
}

// Scheme returns the scenario's scheme name (for run manifests).
func (r *Runner) Scheme() string { return r.doc.Scheme }

// Seed returns the scenario's seed.
func (r *Runner) Seed() int64 { return r.doc.Seed }

// Document returns the scenario as loaded, overrides applied. The run reads
// it, so its slices are not the caller's to modify.
func (r *Runner) Document() Document { return r.doc }

// Engine returns the scenario's simulation engine ("packet" unless the
// document selected a fluid fidelity). Part of a run's cache identity: the
// same document at a different fidelity is a different result.
func (r *Runner) Engine() string { return string(r.engine) }

// SetTelemetry streams the run's metric registry and sim-time event log
// into run's artifact directory; the caller owns (and closes) the Run.
func (r *Runner) SetTelemetry(run *telemetry.Run) { r.hooks.run = run }

// SetProgress attaches a wall-clock progress writer (typically os.Stderr).
func (r *Runner) SetProgress(w io.Writer) { r.hooks.progress = w }

// SetTraceEvents records the last n drop/mark/evict events at a static
// scenario's bottleneck port; Trace reads them back after the run. An fct
// scenario has no single bottleneck, so it refuses.
func (r *Runner) SetTraceEvents(n int) error {
	if r.doc.Kind != "static" {
		return fmt.Errorf("scenario: the event trace records a static scenario's bottleneck; this one is %s", r.doc.Kind)
	}
	rec, err := metrics.NewEventRecorder(n)
	if err != nil {
		return err
	}
	rec.Only(netsim.EvDrop, netsim.EvMark, netsim.EvEvict, netsim.EvDequeueDrop)
	r.trace = rec
	return nil
}

// Trace returns the event recorder SetTraceEvents armed, nil if it was not.
func (r *Runner) Trace() *metrics.EventRecorder { return r.trace }

// SetSpans attaches a span tracer for retroactive sim-time phase spans,
// parented under the given wall-time span id (empty for a root sim span).
func (r *Runner) SetSpans(tr *trace.Tracer, parent string) {
	r.hooks.spans, r.hooks.spanParent = tr, parent
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
	if doc.RateGbps <= 0 {
		return nil, invalidf("rate_gbps", "must be positive, got %v", doc.RateGbps)
	}
	if doc.BufferB <= 0 {
		return nil, invalidf("buffer_bytes", "must be positive, got %d", doc.BufferB)
	}
	if doc.PerQueueKB < 0 {
		return nil, invalidf("per_queue_k_bytes", "must not be negative, got %d", doc.PerQueueKB)
	}
	r := &Runner{doc: doc, engine: experiment.EnginePacket}
	var err error
	if r.sched, err = sched.LookupKind(doc.Sched); err != nil {
		return nil, invalidf("sched", "%v", err)
	}
	var n numbers
	doc.tcnTarget(&n)
	doc.rate(&n)
	doc.delay(&n)
	doc.minRTO(&n)

	// build checks, once the document's numbers have converted, what a run
	// of the document's kind would refuse on a worker, and builds the fabric
	// the cell runs on.
	var build func() (*fabric.Graph, error)
	switch doc.Kind {
	case "static":
		if doc.Engine != "" && doc.Engine != string(experiment.EnginePacket) {
			return nil, invalidf("engine", "static scenarios run at packet level, got %q", doc.Engine)
		}
		for i := range doc.Specs {
			alg, err := transport.LookupAlgorithm(doc.Specs[i].Ctrl)
			if err != nil {
				return nil, invalidf(fmt.Sprintf("specs[%d].ctrl", i), "%v", err)
			}
			r.ctrls = append(r.ctrls, alg.New)
			doc.Specs[i].times(&n, i)
		}
		doc.duration(&n)
		doc.sampleEvery(&n)
		build = r.staticFabric
	case "fct":
		if doc.Load <= 0 || doc.Load > 1 {
			return nil, invalidf("load", "must be in (0, 1], got %v", doc.Load)
		}
		if r.engine, err = experiment.ParseEngineMode(doc.Engine); err != nil {
			return nil, invalidf("engine", "unknown engine %q (want packet, flow or hybrid)", doc.Engine)
		}
		for i, name := range doc.Workloads {
			cdf, err := workload.ByName(name)
			if err != nil {
				return nil, invalidf(fmt.Sprintf("workloads[%d]", i), "%v", err)
			}
			r.cdfs = append(r.cdfs, cdf)
		}
		doc.maxRuntime(&n)
		doc.detectionDelay(&n)
		r.sched, _ = sched.LookupKind(fctSched) // a row of the table
		build = r.fctFabric
	default:
		return nil, invalidf("kind", "unknown kind %q (want static or fct)", doc.Kind)
	}
	if n.err != nil {
		return nil, n.err
	}
	if err := faults.Validate(doc.Faults); err != nil {
		return nil, &ValidationError{"faults", err.Error()}
	}
	if r.g, err = build(); err != nil {
		return nil, err
	}
	if err := r.checkConstructors(); err != nil {
		return nil, err
	}
	if err := checkRead(doc); err != nil {
		return nil, err
	}
	return r, nil
}

// checkConstructors reports what the run's constructors would refuse on r.g,
// which the run does not check again: on an fct cell the flow generators',
// then one port's scheduler and scheme and the fault targets on the packet
// engine (checkNetwork), or flowsim's on a fluid one.
func (r *Runner) checkConstructors() error {
	if r.doc.Kind == "fct" {
		if _, err := r.flowGens(); err != nil {
			// The generators offer load × rate on each receiving downlink: a
			// load too small to time, or a rate times the host count past
			// int64.
			return &ValidationError{"load", err.Error()}
		}
		if r.engine != experiment.EnginePacket {
			return refusal(r.fluid().Check())
		}
	}
	return r.checkNetwork()
}

// numbers converts a document's float keys to the int64 units a run counts
// in, picoseconds and bits per second, and keeps the first key whose
// converted value is negative, does not fit an int64, or is positive and
// truncates to 0 (which a run would read as the key's default). The
// conversions below are each key's only one: the loader calls them with a
// *numbers, the run with nil.
type numbers struct{ err error }

// fit checks key's value v, which is x in its int64 unit, and returns x.
func (n *numbers) fit(key string, v, x float64) float64 {
	switch {
	case n == nil || n.err != nil:
	case x < 0:
		n.err = invalidf(key, "must not be negative, got %v", v)
	case x >= 1<<63:
		n.err = invalidf(key, "too large for 64-bit picoseconds or bits per second, got %v", v)
	case v > 0 && x < 1:
		n.err = invalidf(key, "too small for picoseconds or bits per second, got %v", v)
	}
	return x
}

// seconds converts key's value v, which is s seconds, to a Duration.
func (n *numbers) seconds(key string, v, s float64) units.Duration {
	n.fit(key, v, s*float64(units.Second))
	return units.Seconds(s)
}

func (d *Document) rate(n *numbers) units.Rate {
	return units.Rate(n.fit("rate_gbps", d.RateGbps, d.RateGbps*1e9))
}

// delay is each link's propagation delay, a quarter of the base RTT.
func (d *Document) delay(n *numbers) units.Duration {
	return n.seconds("rtt_us", d.RTTUs, d.RTTUs/4*1e-6)
}

func (d *Document) minRTO(n *numbers) units.Duration {
	return n.seconds("min_rto_ms", d.MinRTOMs, d.MinRTOMs*1e-3)
}

func (d *Document) tcnTarget(n *numbers) units.Duration {
	return n.seconds("tcn_target_us", d.TCNTargetUs, d.TCNTargetUs*1e-6)
}

func (d *Document) duration(n *numbers) units.Duration {
	return n.seconds("duration_s", d.DurationS, d.DurationS)
}

// sampleEvery is the throughput sampling interval, 500ms when unset (paper:
// 0.5s testbed, 10ms simulation).
func (d *Document) sampleEvery(n *numbers) units.Duration {
	if every := n.seconds("sample_ms", d.SampleMs, d.SampleMs*1e-3); every != 0 {
		return every
	}
	return 500 * units.Millisecond
}

// maxRuntime is the fct run's simulated-time horizon, 10s when unset: the
// run stops there even if flows are still arriving or in flight.
func (d *Document) maxRuntime(n *numbers) units.Duration {
	if horizon := n.seconds("max_runtime_s", d.MaxRuntimeS, d.MaxRuntimeS); horizon != 0 {
		return horizon
	}
	return 10 * units.Second
}

// detectionDelay is failure-aware routing's convergence time; topology
// reads 0 as 1ms.
func (d *Document) detectionDelay(n *numbers) units.Duration {
	return n.seconds("detection_delay_ms", d.DetectMs, d.DetectMs*1e-3)
}

// times converts spec i's start, spacing and stop: flow f starts at start +
// f·spacing, or at start plus a seeded jitter when spacing is 0, and every
// flow of the spec stops at stop unless it is 0.
func (sp *Spec) times(n *numbers, i int) (start, spacing, stop units.Duration) {
	key := func(k string) string { return fmt.Sprintf("specs[%d].%s", i, k) }
	return n.seconds(key("start_at_s"), sp.StartS, sp.StartS),
		n.seconds(key("spacing_s"), sp.SpacingS, sp.SpacingS),
		n.seconds(key("stop_at_s"), sp.StopS, sp.StopS)
}

// hosts is how many sender hosts the spec's flows spread over, 1 when unset.
func (sp *Spec) hosts() int {
	if sp.Hosts == 0 {
		return 1
	}
	return sp.Hosts
}

// fctSched is every fct cell's port scheduler (§V-A2): one shared
// strict-priority queue above the DRR queues.
const fctSched = "spq+drr"

// checkRead refuses a key that doc sets and a run of its kind never reads:
// the run would ignore it, and a result cached under the document's hash
// would describe a network nobody asked for.
func checkRead(doc Document) error {
	if doc.Kind == "fct" && doc.Sched != "" && doc.Sched != fctSched {
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
		default: // an fct shape key of another topology; fctFabric accepted the topo
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
	if r.doc.Kind == "static" {
		res.Static, err = r.runStatic()
	} else {
		res.Dynamic, err = runDynamic(r, newCellEngine)
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RunOutcome runs the scenario and returns its outcome file's bytes and the
// result decoded from them, the only result a reader of the run sees. Run
// itself encodes nothing.
func (r *Runner) RunOutcome() (*Result, []byte, error) {
	res, err := r.Run()
	if err != nil {
		return nil, nil, err
	}
	outcome, err := EncodeOutcome(res)
	if err != nil {
		return nil, nil, err
	}
	res, err = DecodeOutcome(outcome)
	return res, outcome, err
}
