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
	"dynaq/internal/transport"
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
	ids := 1 // transport flow ids per flow: a request and its response take two
	if d.RequestResponse {
		ids = 2
	}
	switch {
	case d.Flows <= 0:
		return nil, &ValidationError{"flows", "dynamic run needs flows > 0"}
	case r.engine == experiment.EnginePacket && d.Flows > int(transport.MaxFlowID)/ids:
		return nil, &ValidationError{"flows", fmt.Sprintf("at most %d flows on the packet engine, whose flow ids end at %d", int(transport.MaxFlowID)/ids, transport.MaxFlowID)}
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
	topo := fabric.Kind(d.Topo)
	if err := r.resolve(topo); err != nil {
		return nil, err
	}
	rate := r.params.Rate
	var (
		g   *fabric.Graph
		err error
	)
	switch topo {
	case fabric.Star:
		// Servers sender hosts plus the client; zero means the testbed's 4,
		// and the star refuses a negative count as too few hosts.
		servers := d.Servers
		if servers == 0 {
			servers = 4
		}
		g, err = newStar(servers+1, rate, "servers")
	case fabric.LeafSpine:
		g, err = fabric.NewLeafSpine(d.Leaves, d.Spines, d.HostsPerLeaf, rate)
	case fabric.FatTree:
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

	res := &experiment.DynamicResult{FCT: metrics.NewFCTCollector()}
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
	// A completion is the record of one flow in flight: its done, built
	// once when the record is made, records the flow's size and FCT and then
	// puts the record back on the run's free list, so a run makes one record
	// per flow in flight at its peak, not one per flow. An exchange's
	// request and its response share one record: the request's completion
	// starts the response.
	type completion struct {
		f       flowStart      // the flow, or an exchange's response; f.done is the record's closure
		issue   units.Time     // when an exchange's request was issued
		reqFCT  units.Duration // an exchange's request FCT, 0 for a plain flow
		request bool           // an exchange's request is in flight
		next    *completion    // the free list's link
	}
	var idle *completion
	// take returns an idle record holding f, with f.done its closure.
	take := func(f flowStart) *completion {
		c := idle
		if c == nil {
			c = new(completion)
			c.f.done = func(fct units.Duration) {
				if c.request {
					c.request, c.reqFCT = false, fct
					eng.start(c.issue.Add(fct), c.f)
					return
				}
				record(c.f.size, c.reqFCT+fct)
				c.next, idle = idle, c
			}
		} else {
			idle = c.next
		}
		f.done = c.f.done
		*c = completion{f: f}
		return c
	}

	// One arrival process per workload; workload w maps to the DRR queues
	// w, w+len, w+2len, ... so that "different services use different
	// traffic distributions" (§V-B2).
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
		c := take(flowStart{id: flowID, src: src, dst: dst, class: 1 + pick, size: size})
		if !d.RequestResponse {
			eng.start(at, c.f)
			return
		}
		// An exchange issues the request at at; the response starts at the
		// request's completion.
		c.issue, c.request = at, true
		eng.start(at, flowStart{id: flowID - 1, src: dst, dst: src, class: 0, size: requestSize, done: c.f.done})
	}
	perGen := d.Flows / len(gens)
	var left []int
	for range gens {
		left = append(left, perGen)
	}
	left[0] += d.Flows - perGen*len(gens)
	// A generator has one arrival pending at a time, and that arrival
	// schedules the next: the event carries the generator's own arrival
	// record, so scheduling a flow allocates nothing.
	type arrival struct {
		gi int
		at units.Time
	}
	var arrive func(any)
	schedule := func(a *arrival) {
		if left[a.gi] <= 0 {
			return
		}
		left[a.gi]--
		s.AtCall(a.at, arrive, a)
	}
	arrive = func(x any) {
		a := x.(*arrival)
		launch(a.gi, a.at)
		a.at = a.at.Add(gens[a.gi].NextInterarrival())
		schedule(a)
	}
	arrivals := make([]arrival, len(gens))
	for gi, gen := range gens {
		arrivals[gi] = arrival{gi, units.Time(gen.NextInterarrival())}
		schedule(&arrivals[gi])
	}

	// Flow accounting reads the same two sources the result does — the
	// flow-id counter and the FCT collector — so there is no second set of
	// books to fall out of sync.
	maxRuntime := d.maxRuntime(nil)
	r.hooks.observe(s, maxRuntime, func(reg *telemetry.Registry, run *telemetry.Run) {
		eng.instrument(reg, run)
		fctHist = fctSeries(reg, func() int64 { return int64(flowID / idsPerFlow) }, res.FCT)
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
