package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/flowsim"
	"dynaq/internal/metrics"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// TopoKind selects the network shape of a dynamic-flow experiment.
type TopoKind = fabric.Kind

// Topology kinds; every kind runs on every engine.
const (
	TopoStar      = fabric.Star
	TopoLeafSpine = fabric.LeafSpine
	TopoFatTree   = fabric.FatTree
)

// DynamicConfig assembles an FCT experiment: Poisson flow arrivals with
// empirical sizes, SPQ+DRR scheduling with two-level PIAS classification
// (§V-A2 and §V-B2).
type DynamicConfig struct {
	Cell

	// Engine selects the fidelity: EnginePacket (the default) runs the
	// per-packet discrete-event engine; EngineFlow runs the fluid fast
	// path; EngineHybrid adds selective packetization of congested ports
	// (see internal/flowsim). Faults, Guard and FailureAware need the
	// packet engine.
	Engine EngineMode
	// FatTreeK is the fat-tree arity (TopoFatTree only).
	FatTreeK int

	Topo TopoKind
	// Star parameters: Servers sender hosts plus one client (the
	// bottleneck is the client downlink), matching the testbed's 4
	// servers + 1 client.
	Servers int
	// Leaf-spine parameters.
	Leaves, Spines, HostsPerLeaf int

	// Load is the target bottleneck utilization (0.3–0.8 in the paper).
	Load float64
	// Flows is the number of flows to generate (paper: 10K).
	Flows int
	// RequestResponse makes each generated flow the response of a §V-A2
	// request/response exchange: a 100 B class-0 request travels from
	// the flow's destination to its source first, and the response starts
	// when the request completes. Its FCT runs from the request's issue;
	// Flows and Generated count exchanges. Issue times stay Poisson,
	// independent of completions.
	RequestResponse bool
	// Workloads supplies one flow-size CDF per DRR service queue; a
	// single entry is shared by all queues (testbed: web search for all;
	// leaf-spine: the four workloads round-robin).
	Workloads []*workload.CDF
	// DCTCP runs all flows with DCTCP + ECN (the ECN-based lineup).
	DCTCP bool

	// MaxRuntime is the run's absolute simulated-time horizon: the run
	// stops there even if flows are still arriving or in flight (default
	// 10s).
	MaxRuntime units.Duration

	// FailureAware enables failure-aware ECMP (a no-op on the star, which
	// has a single path per destination).
	FailureAware bool
	// DetectionDelay is the failure-aware routing convergence time
	// (default 1ms when FailureAware is set).
	DetectionDelay units.Duration
}

// DynamicResult is the outcome of an FCT run.
type DynamicResult struct {
	Scheme    Scheme
	Load      float64
	FCT       *metrics.FCTCollector
	Generated int
	Completed int

	FaultOutcome

	// Events counts the discrete events the simulator processed — the
	// basis for comparing engine fidelities' costs.
	Events int64
	// Fluid holds the flow-engine counters (nil under the packet engine).
	Fluid *flowsim.Stats
}

// Summary is the run's headline for a manifest, the same keys from every
// tool that writes one.
func (r *DynamicResult) Summary() []telemetry.SummaryEntry {
	sum := []telemetry.SummaryEntry{
		{Key: "flows_generated", Value: strconv.Itoa(r.Generated)},
		{Key: "flows_completed", Value: strconv.Itoa(r.Completed)},
		{Key: "avg_fct_us_overall", Value: strconv.FormatInt(int64(r.FCT.Avg(metrics.AllFlows)/units.Microsecond), 10)},
	}
	if fl := r.Fluid; fl != nil {
		sum = append(sum,
			telemetry.SummaryEntry{Key: "events", Value: strconv.FormatInt(r.Events, 10)},
			telemetry.SummaryEntry{Key: "recomputes", Value: strconv.FormatInt(fl.Recomputes, 10)},
			telemetry.SummaryEntry{Key: "demotions", Value: strconv.FormatInt(fl.Demotions, 10)})
	}
	return sum
}

// ConfigError is a refused scenario: Field names the document key to fix
// (empty when the document itself failed to decode) and Msg what was wrong
// with it. scenario.ValidationError is this type, so the loader's refusals
// and the configs' are one error a server maps to an HTTP 400 body.
type ConfigError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *ConfigError) Error() string {
	if e.Field == "" {
		return "scenario: " + e.Msg
	}
	return "scenario: " + e.Field + ": " + e.Msg
}

// fabric builds the graph the cell runs on: the one place a TopoKind and
// its shape parameters become a fabric.
func (cfg *DynamicConfig) fabric() (*fabric.Graph, error) {
	switch cfg.Topo {
	case TopoStar:
		// Servers sender hosts plus the client; zero means the testbed's 4,
		// and the star refuses a negative count as too few hosts.
		servers := cfg.Servers
		if servers == 0 {
			servers = 4
		}
		return newStar(servers+1, cfg.Rate, "servers")
	case TopoLeafSpine:
		return fabric.NewLeafSpine(cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf, cfg.Rate)
	case TopoFatTree:
		return fabric.NewFatTree(cfg.FatTreeK, cfg.Rate)
	default:
		return nil, &ConfigError{"topo", fmt.Sprintf("unknown topology %q", cfg.Topo)}
	}
}

// newStar is fabric.NewStar with a refused host count blamed on key, the
// document key the count comes from.
func newStar(hosts int, rate units.Rate, key string) (*fabric.Graph, error) {
	g, err := fabric.NewStar(hosts, rate)
	if shape := (*fabric.ShapeError)(nil); errors.As(err, &shape) && shape.Param == "hosts" {
		shape.Param = key
	}
	return g, err
}

// normalize validates cfg, fills its defaults and builds its fabric. The
// loader has already resolved the engine name and refused negative times.
func (cfg *DynamicConfig) normalize() (*fabric.Graph, error) {
	if cfg.Engine == "" {
		cfg.Engine = EnginePacket
	}
	// Queue 0 is the shared SPQ queue; the DRR service queues follow it.
	if err := checkQueues(cfg.Queues, 2); err != nil {
		return nil, err
	}
	switch {
	case cfg.Flows <= 0:
		return nil, &ConfigError{"flows", "dynamic run needs flows > 0"}
	case len(cfg.Workloads) == 0:
		return nil, &ConfigError{"workloads", "dynamic run needs at least one workload"}
	case cfg.Engine != EnginePacket && (len(cfg.Faults) > 0 || cfg.Guard || cfg.FailureAware):
		// The fluid engines build no netsim ports or links for faults to
		// hit, the guardrail to watch or routing to probe.
		return nil, &ConfigError{"engine", "faults, guardrails and failure-aware routing need the packet engine"}
	}
	if err := cfg.resolve(cfg.Topo); err != nil {
		return nil, err
	}
	if cfg.MaxRuntime == 0 {
		cfg.MaxRuntime = 10 * units.Second
	}
	g, err := cfg.fabric()
	return g, refusal(err)
}

// refusal is err, a fabric or flowsim constructor's, as a *ConfigError
// naming the document key it refused.
func refusal(err error) error {
	var shape *fabric.ShapeError
	var fluid *flowsim.ConfigError
	switch {
	case errors.As(err, &shape):
		return &ConfigError{shape.Param, shape.Msg}
	case errors.As(err, &fluid):
		return &ConfigError{fluid.Param, fluid.Msg}
	}
	return err
}

// checkQueues refuses a queue count outside [least, sched.MaxQueues]: a port
// tells its scheduler which queues hold packets in one 64-bit word.
func checkQueues(n, least int) error {
	if n < least || n > sched.MaxQueues {
		return &ConfigError{"queues", fmt.Sprintf("must be in [%d, %d], got %d", least, sched.MaxQueues, n)}
	}
	return nil
}

// checkWeights rejects a weight vector the schedulers and schemes cannot
// run on: one entry per queue, every entry positive.
func checkWeights(weights []int64, queues int) error {
	if len(weights) != queues {
		return &ConfigError{"weights", fmt.Sprintf("%d weights for %d queues", len(weights), queues)}
	}
	for _, w := range weights {
		if w <= 0 {
			return &ConfigError{"weights", fmt.Sprintf("weight %d must be positive", w)}
		}
	}
	return nil
}

// flowGens builds one arrival process per workload. Their aggregate rate
// targets Load on one bottleneck link: the star's client downlink, or each
// host's downlink scaled by the host count, as every host is a receiver.
func (cfg *DynamicConfig) flowGens(g *fabric.Graph) ([]*workload.FlowGen, error) {
	capacity := cfg.Rate
	if g.Kind() != fabric.Star {
		capacity = cfg.Rate * units.Rate(g.Hosts())
	}
	gens := make([]*workload.FlowGen, len(cfg.Workloads))
	for i, cdf := range cfg.Workloads {
		var err error
		gens[i], err = workload.NewFlowGen(cfg.Seed+int64(i), cdf, capacity, cfg.Load/float64(len(cfg.Workloads)))
		if err != nil {
			return nil, err
		}
	}
	return gens, nil
}

// Validate reports, as a *ConfigError naming the document key to fix, every
// setting RunDynamic would refuse, so a loader refuses the cell at
// submission instead of on a worker: the fault specs, normalize's rules,
// then the checks RunDynamic's constructors run, which RunDynamic itself
// does not repeat: the flow generators', then Cell.checkNetwork on the
// packet engine or flowsim's on a fluid one.
func (cfg DynamicConfig) Validate() error {
	if err := faults.Validate(cfg.Faults); err != nil {
		return &ConfigError{"faults", err.Error()}
	}
	g, err := cfg.normalize()
	if err != nil {
		return err
	}
	if _, err := cfg.flowGens(g); err != nil {
		// The generators offer load × rate on each receiving downlink: a
		// load too small to time, or a rate times the host count past int64.
		return &ConfigError{"load", err.Error()}
	}
	if cfg.Engine == EnginePacket {
		return cfg.checkNetwork(g, SchedSPQDRR)
	}
	return refusal(cfg.fluid(g).Check())
}

// requestSize is the wire payload of a RequestResponse request (a small RPC
// header).
const requestSize = 100 * units.Byte

// RunDynamic executes an FCT scenario on cfg.Engine. The fabric, the
// arrival processes, the source/destination draws and the class striping
// are engine-independent, so a given seed describes the same offered
// traffic at every fidelity; only the flow execution behind the cellEngine
// seam differs.
func RunDynamic(cfg DynamicConfig) (*DynamicResult, error) {
	return runDynamic(cfg, newCellEngine)
}

// runDynamic is RunDynamic with the engine built by newEngine.
func runDynamic(cfg DynamicConfig, newEngine func(*sim.Simulator, *fabric.Graph, *DynamicConfig) (cellEngine, error)) (*DynamicResult, error) {
	g, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	hosts := g.Hosts()
	// On the star the servers all answer one client, the last host (the
	// testbed's request/response model); elsewhere any distinct pair talks.
	incast := g.Kind() == fabric.Star
	gens, err := cfg.flowGens(g)
	if err != nil {
		return nil, err
	}

	s := sim.New()
	eng, err := newEngine(s, g, &cfg)
	if err != nil {
		return nil, err
	}

	res := &DynamicResult{Scheme: cfg.Scheme, Load: cfg.Load, FCT: metrics.NewFCTCollector()}
	// An exchange is two transport flows, the request then its response, and
	// exchanges draw from their own rng stream.
	salt, idsPerFlow := int64(0x5eed), packet.FlowID(1)
	if cfg.RequestResponse {
		salt, idsPerFlow = 0xc11e17, 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ salt))
	serviceQueues := cfg.Queues - 1
	var flowID packet.FlowID

	var fctHist *telemetry.Histogram // set with telemetry attached
	record := func(size units.ByteSize, fct units.Duration) {
		res.FCT.Add(size, fct)
		if fctHist != nil {
			fctHist.Observe(int64(fct / units.Microsecond))
		}
	}
	// exchange issues f's request at issue and starts f, the response, at
	// the request's completion.
	exchange := func(issue units.Time, f flowStart) {
		eng.start(issue, flowStart{
			id: f.id - 1, src: f.dst, dst: f.src, class: 0, size: requestSize,
			done: func(reqFCT units.Duration) {
				f.done = func(fct units.Duration) { record(f.size, reqFCT+fct) }
				eng.start(issue.Add(reqFCT), f)
			},
		})
	}

	// One arrival process per workload; workload w maps to the DRR queues
	// w, w+len, w+2len, ... so that "different services use different
	// traffic distributions" (§V-B2).
	var schedule func(gi int, at units.Time)
	launch := func(gi int, at units.Time) {
		flowID += idsPerFlow
		size := gens[gi].NextSize()
		var src, dst int
		if incast {
			dst = hosts - 1
			src = rng.Intn(hosts - 1)
		} else {
			src = rng.Intn(hosts)
			dst = rng.Intn(hosts - 1)
			if dst >= src {
				dst++
			}
		}
		// Service queue: workloads stripe over the DRR queues; a flow is
		// mapped to one of its workload's queues at random ("a flow is
		// mapped to one of the service queues randomly").
		qChoices := 0
		for q := gi; q < serviceQueues; q += len(gens) {
			qChoices++
		}
		pick := gi
		if qChoices > 1 {
			pick = gi + len(gens)*rng.Intn(qChoices)
		}
		f := flowStart{id: flowID, src: src, dst: dst, class: 1 + pick, size: size}
		if cfg.RequestResponse {
			exchange(at, f)
			return
		}
		f.done = func(fct units.Duration) { record(size, fct) }
		eng.start(at, f)
	}
	perGen := cfg.Flows / len(gens)
	var left []int
	for range gens {
		left = append(left, perGen)
	}
	left[0] += cfg.Flows - perGen*len(gens)
	schedule = func(gi int, at units.Time) {
		if left[gi] <= 0 {
			return
		}
		left[gi]--
		s.At(at, func() {
			launch(gi, at)
			schedule(gi, at.Add(gens[gi].NextInterarrival()))
		})
	}
	for gi, gen := range gens {
		schedule(gi, units.Time(gen.NextInterarrival()))
	}

	// Flow accounting reads the same two sources the result does — the
	// flow-id counter and the FCT collector — so there is no second set of
	// books to fall out of sync.
	cfg.observe(s, cfg.MaxRuntime, func(reg *telemetry.Registry, run *telemetry.Run) {
		eng.instrument(reg, run)
		reg.CounterFunc("flows_generated_total", func() int64 { return int64(flowID / idsPerFlow) })
		reg.CounterFunc("flows_completed_total", func() int64 { return int64(res.FCT.Len()) })
		fctHist = reg.Histogram("fct_us", fctBounds)
	}, func() {
		// Run until all flows complete or the drain budget expires. The FCT
		// collector is the single completion ledger (each completion adds
		// one record), so the loop polls it directly.
		deadline := units.Time(cfg.MaxRuntime)
		for res.FCT.Len() < cfg.Flows && s.Pending() > 0 && s.Now() < deadline {
			s.Step()
		}
	})
	eng.finish(res)
	attrs := []trace.Attr{trace.A("kind", "fct")}
	if cfg.Engine != EnginePacket {
		attrs = append(attrs, trace.A("engine", string(cfg.Engine)))
	}
	cfg.simSpan(s.Now(), append(attrs, trace.AInt("flows_completed", int64(res.FCT.Len())))...)
	res.Generated = int(flowID / idsPerFlow)
	res.Completed = res.FCT.Len()
	res.Events = int64(s.Processed())
	return res, nil
}
