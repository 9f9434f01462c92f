package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
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

// fctFabric checks an fct document's queues, flows, workloads and engine,
// resolves its cell and builds its fabric: the one place a topo and its
// shape keys become a fabric. The loader has already resolved the engine
// and the workloads and refused negative times.
func (r *Runner) fctFabric() (*fabric.Graph, error) {
	d := &r.doc
	// Queue 0 is the shared SPQ queue; the DRR service queues follow it.
	if err := checkQueues(d.Queues, 2); err != nil {
		return nil, err
	}
	switch {
	case d.Flows <= 0:
		return nil, &ValidationError{"flows", "dynamic run needs flows > 0"}
	case len(r.cdfs) == 0:
		return nil, &ValidationError{"workloads", "dynamic run needs at least one workload"}
	case len(r.cdfs) > d.Queues-1:
		// Workload w runs on the DRR queues w, w+len, ...: with more
		// workloads than queues, a workload's flows would name a class the
		// ports do not have.
		return nil, &ValidationError{"workloads", fmt.Sprintf("%d workloads for %d DRR service queues, want at most one per queue", len(r.cdfs), d.Queues-1)}
	case r.engine != experiment.EnginePacket && (len(d.Faults) > 0 || d.Guard || d.FailureAware):
		// The fluid engines build no netsim ports or links for faults to
		// hit, the guardrail to watch or routing to probe.
		return nil, &ValidationError{"engine", "faults, guardrails and failure-aware routing need the packet engine"}
	}
	topo := experiment.TopoKind(d.Topo)
	if err := r.resolve(topo); err != nil {
		return nil, err
	}
	rate := r.params.Rate
	var (
		g   *fabric.Graph
		err error
	)
	switch topo {
	case experiment.TopoStar:
		// Servers sender hosts plus the client; zero means the testbed's 4,
		// and the star refuses a negative count as too few hosts.
		servers := d.Servers
		if servers == 0 {
			servers = 4
		}
		g, err = newStar(servers+1, rate, "servers")
	case experiment.TopoLeafSpine:
		g, err = fabric.NewLeafSpine(d.Leaves, d.Spines, d.HostsPerLeaf, rate)
	case experiment.TopoFatTree:
		g, err = fabric.NewFatTree(d.FatTreeK, rate)
	default:
		return nil, &ValidationError{"topo", fmt.Sprintf("unknown topology %q", d.Topo)}
	}
	return g, refusal(err)
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

// refusal is err, a fabric or flowsim constructor's, as a *ValidationError
// naming the document key it refused.
func refusal(err error) error {
	var shape *fabric.ShapeError
	var fluid *flowsim.ConfigError
	switch {
	case errors.As(err, &shape):
		return &ValidationError{shape.Param, shape.Msg}
	case errors.As(err, &fluid):
		return &ValidationError{fluid.Param, fluid.Msg}
	}
	return err
}

// checkQueues refuses a queue count outside [least, sched.MaxQueues]: a port
// tells its scheduler which queues hold packets in one 64-bit word.
func checkQueues(n, least int) error {
	if n < least || n > sched.MaxQueues {
		return &ValidationError{"queues", fmt.Sprintf("must be in [%d, %d], got %d", least, sched.MaxQueues, n)}
	}
	return nil
}

// checkWeights rejects a weight vector the schedulers and schemes cannot
// run on: one entry per queue, every entry positive.
func checkWeights(weights []int64, queues int) error {
	if len(weights) != queues {
		return &ValidationError{"weights", fmt.Sprintf("%d weights for %d queues", len(weights), queues)}
	}
	for _, w := range weights {
		if w <= 0 {
			return &ValidationError{"weights", fmt.Sprintf("weight %d must be positive", w)}
		}
	}
	return nil
}

// flowGens builds one arrival process per workload. Their aggregate rate
// targets the document's load on one bottleneck link: the star's client
// downlink, or each host's downlink scaled by the host count, as every host
// is a receiver.
func (r *Runner) flowGens() ([]*workload.FlowGen, error) {
	capacity := r.params.Rate
	if r.g.Kind() != fabric.Star {
		capacity *= units.Rate(r.g.Hosts())
	}
	gens := make([]*workload.FlowGen, len(r.cdfs))
	for i, cdf := range r.cdfs {
		var err error
		gens[i], err = workload.NewFlowGen(r.doc.Seed+int64(i), cdf, capacity, r.doc.Load/float64(len(r.cdfs)))
		if err != nil {
			return nil, err
		}
	}
	return gens, nil
}

// requestSize is the wire payload of a request_response request (a small
// RPC header).
const requestSize = 100 * units.Byte

// runDynamic runs an fct document on the engine newEngine builds. The
// fabric, the arrival processes, the source/destination draws and the class
// striping are engine-independent, so a given seed describes the same
// offered traffic at every fidelity; only the flow execution behind the
// cellEngine seam differs.
func runDynamic(r *Runner, newEngine func(*sim.Simulator, *Runner) (cellEngine, error)) (*experiment.DynamicResult, error) {
	d := &r.doc
	hosts := r.g.Hosts()
	// On the star the servers all answer one client, the last host (the
	// testbed's request/response model); elsewhere any distinct pair talks.
	incast := r.g.Kind() == fabric.Star
	gens, err := r.flowGens()
	if err != nil {
		return nil, err
	}

	s := sim.New()
	eng, err := newEngine(s, r)
	if err != nil {
		return nil, err
	}

	res := &experiment.DynamicResult{Scheme: experiment.Scheme(d.Scheme), Load: d.Load, FCT: metrics.NewFCTCollector()}
	// An exchange is two transport flows, the request then its response, and
	// exchanges draw from their own rng stream.
	salt, idsPerFlow := int64(0x5eed), packet.FlowID(1)
	if d.RequestResponse {
		salt, idsPerFlow = 0xc11e17, 2
	}
	rng := rand.New(rand.NewSource(d.Seed ^ salt))
	serviceQueues := d.Queues - 1
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
		if d.RequestResponse {
			exchange(at, f)
			return
		}
		f.done = func(fct units.Duration) { record(size, fct) }
		eng.start(at, f)
	}
	perGen := d.Flows / len(gens)
	var left []int
	for range gens {
		left = append(left, perGen)
	}
	left[0] += d.Flows - perGen*len(gens)
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
	maxRuntime := d.maxRuntime(nil)
	r.hooks.observe(s, maxRuntime, func(reg *telemetry.Registry, run *telemetry.Run) {
		eng.instrument(reg, run)
		reg.CounterFunc("flows_generated_total", func() int64 { return int64(flowID / idsPerFlow) })
		reg.CounterFunc("flows_completed_total", func() int64 { return int64(res.FCT.Len()) })
		fctHist = reg.Histogram("fct_us", fctBounds)
	}, func() {
		// Run until all flows complete or the drain budget expires. The FCT
		// collector is the single completion ledger (each completion adds
		// one record), so the loop polls it directly.
		deadline := units.Time(maxRuntime)
		for res.FCT.Len() < d.Flows && s.Pending() > 0 && s.Now() < deadline {
			s.Step()
		}
	})
	eng.finish(res)
	attrs := []trace.Attr{trace.A("kind", "fct")}
	if r.engine != experiment.EnginePacket {
		attrs = append(attrs, trace.A("engine", string(r.engine)))
	}
	r.hooks.simSpan(s.Now(), append(attrs, trace.AInt("flows_completed", int64(res.FCT.Len())))...)
	res.Generated = int(flowID / idsPerFlow)
	res.Completed = res.FCT.Len()
	res.Events = int64(s.Processed())
	return res, nil
}
