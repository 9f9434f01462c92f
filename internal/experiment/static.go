package experiment

import (
	"fmt"
	"io"
	"math/rand"

	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	ttrace "dynaq/internal/telemetry/trace"
	"dynaq/internal/topology"
	"dynaq/internal/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// QueueSpec describes one service queue's traffic in a static-flow
// experiment: long-lived iperf-style flows that start together (with a
// small seeded jitter, as real senders would) and optionally stop at a
// fixed time.
type QueueSpec struct {
	// Class is the service queue index.
	Class int
	// Flows is the number of long-lived flows feeding this queue.
	Flows int
	// Hosts is the number of distinct sender hosts the flows spread over
	// (defaults to 1: one sender per queue, like the testbed).
	Hosts int
	// StopAt stops all of this queue's senders at the given time
	// (0 = run until the end).
	StopAt units.Duration
	// Ctrl builds the congestion controller per flow (NewReno when nil).
	Ctrl func() transport.Controller
	// ECN marks this queue's data packets ECT (for mixed ECN/non-ECN
	// tenant scenarios).
	ECN bool
}

// StaticConfig assembles a static-flow scenario on a star: all flows sink
// at one receiver, making its switch port the measured bottleneck.
type StaticConfig struct {
	Scheme Scheme
	Sched  SchedKind
	// Params carries weights and threshold constants; Rate/BaseRTT are
	// filled from the topology if zero.
	Params SchemeParams

	Rate   units.Rate
	Delay  units.Duration // per-link propagation (base RTT = 4·Delay)
	Buffer units.ByteSize
	Queues int
	MTU    units.ByteSize // 1500, or 9000 for jumbo (Fig. 11/12)

	Specs    []QueueSpec
	Duration units.Duration
	// SampleEvery sets the throughput sampling interval (paper: 0.5s
	// testbed, 10ms simulation).
	SampleEvery units.Duration
	// TraceQueues additionally records the queue-length evolution
	// (Fig. 4), decimated by TraceStride.
	TraceQueues bool
	TraceStride int

	// ECNFlows sets ECT on every flow's data packets (required when the
	// port scheme is a marking scheme and the controllers are DCTCP).
	ECNFlows bool

	// TraceEvents, when positive, records the last N drop/mark/evict
	// events at the bottleneck port into the result's Trace recorder.
	TraceEvents int

	// Faults is the scripted fault schedule, applied against the star's
	// fault registry (targets "tor:<i>", "host<i>:nic", group "tor"); the
	// timeline is a deterministic function of Seed.
	Faults []faults.Spec
	// Guard wires the invariant guardrail into every switch port,
	// recording Σ T_i == B / T_i ≥ 0 / occupancy / pool violations.
	Guard bool

	MinRTO units.Duration
	Seed   int64

	// Telemetry, when non-nil, streams the run's metric registry and
	// sim-time event log into the run's artifact directory; the caller
	// owns (and closes) the Run.
	Telemetry *telemetry.Run
	// Progress, when non-nil, receives human-readable wall-clock progress
	// lines (typically os.Stderr); it never feeds the artifacts.
	Progress io.Writer

	// Spans, when non-nil, receives retroactive sim-time phase spans for
	// the run (a "sim" root with "warmup"/"measure" children), parented
	// under SpanParent. Sim spans carry simulated time only — wall-clock
	// values must never reach them (dynaqlint enforces this at the
	// SimSpan sink).
	Spans      *ttrace.Tracer
	SpanParent string
}

// StaticResult is the outcome of a static-flow run.
type StaticResult struct {
	Scheme     Scheme
	Samples    []metrics.ThroughputSample
	QueueTrace []metrics.QueueSample
	// Drops counts enqueue drops at the bottleneck port.
	Drops int64
	// Trace holds the bottleneck event recorder when TraceEvents was set.
	Trace *trace.Recorder

	// FaultTimeline is the applied fault transitions (empty without Faults).
	FaultTimeline []faults.Transition
	// LinkLost / LinkCorrupted total the packets the faults blackholed or
	// corrupted across every link of the topology.
	LinkLost, LinkCorrupted int64
	// Violations holds the recorded guardrail violations (Guard only);
	// ViolationTotal counts all of them, recorded or not.
	Violations     []faults.Violation
	ViolationTotal int64
}

// startJitterSpan spreads flow starts over the first milliseconds like
// staggered real senders; synchronized microsecond-identical starts produce
// loss patterns no testbed exhibits.
const startJitterSpan = 5 * units.Millisecond

// RunStatic executes a static-flow scenario and returns its measurements.
func RunStatic(cfg StaticConfig) (*StaticResult, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("experiment: static run needs at least one queue spec")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("experiment: static run needs a positive duration")
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1500
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 500 * units.Millisecond
	}
	cfg.Params = cfg.Params.Resolved(cfg.Rate, fabric.Star.BaseRTT(cfg.Delay), nil, cfg.Queues)
	mss := cfg.MTU - transport.HeaderSize

	// Copy the queue specs before normalizing them below: cfg arrives by
	// value, but the Specs slice still shares its backing array with the
	// caller's — and parallel multi-seed runs hand the same specs to
	// concurrent trials.
	cfg.Specs = append([]QueueSpec(nil), cfg.Specs...)

	// Host layout: senders first, receiver last.
	nSenders := 0
	for i := range cfg.Specs {
		if cfg.Specs[i].Hosts <= 0 {
			cfg.Specs[i].Hosts = 1
		}
		if cfg.Specs[i].Flows <= 0 {
			return nil, fmt.Errorf("experiment: queue spec %d has no flows", i)
		}
		nSenders += cfg.Specs[i].Hosts
	}
	s := sim.New()
	star, err := topology.NewStar(s, topology.StarConfig{
		Hosts:     nSenders + 1,
		Rate:      cfg.Rate,
		Delay:     cfg.Delay,
		Buffer:    cfg.Buffer,
		Queues:    cfg.Queues,
		Factories: Factories(cfg.Scheme, cfg.Sched, cfg.Params, cfg.MTU),
	})
	if err != nil {
		return nil, err
	}
	receiver := nSenders
	var eng *faults.Engine
	var reg *faults.Registry
	if len(cfg.Faults) > 0 {
		reg = star.FaultRegistry()
		eng = faults.NewEngine(s, reg, cfg.Seed)
		if err := eng.Schedule(cfg.Faults); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var flowID packet.FlowID
	host := 0
	for _, spec := range cfg.Specs {
		spec := spec
		var senders []*transport.Sender
		for f := 0; f < spec.Flows; f++ {
			ep := star.Endpoints[host+f%spec.Hosts]
			flowID++
			id := flowID
			start := units.Duration(rng.Int63n(int64(startJitterSpan)))
			s.At(units.Time(start), func() {
				var ctrl transport.Controller
				if spec.Ctrl != nil {
					ctrl = spec.Ctrl()
				}
				snd, err := ep.StartFlow(transport.FlowConfig{
					Flow:   id,
					Dst:    receiver,
					Class:  spec.Class,
					Size:   0, // long-lived
					MSS:    mss,
					Ctrl:   ctrl,
					ECN:    cfg.ECNFlows || spec.ECN,
					MinRTO: cfg.MinRTO,
				})
				if err != nil {
					panic(err) // duplicate ids cannot happen: ids are sequential
				}
				senders = append(senders, snd)
			})
		}
		if spec.StopAt > 0 {
			s.At(units.Time(spec.StopAt), func() {
				for _, snd := range senders {
					snd.Stop()
				}
			})
		}
		host += spec.Hosts
	}

	port := star.Port(receiver)
	var rec *trace.Recorder
	if cfg.TraceEvents > 0 {
		var err error
		rec, err = trace.NewRecorder(cfg.TraceEvents)
		if err != nil {
			return nil, err
		}
		rec.Only(netsim.EvDrop, netsim.EvMark, netsim.EvEvict, netsim.EvDequeueDrop)
		rec.Attach(port)
	}
	// Installed after the recorder: Attach replaces the port's hook, while
	// Watch chains, so this order keeps both observers live.
	var guard *faults.Guardrail
	if cfg.Guard {
		guard = faults.NewGuardrail(32)
		star.EachPort(guard.Watch)
	}
	ts := metrics.NewThroughputSampler(s, port, cfg.SampleEvery)
	var qt *metrics.QueueTrace
	if cfg.TraceQueues {
		stride := cfg.TraceStride
		if stride == 0 {
			stride = 1
		}
		qt = metrics.NewQueueTrace(port, stride)
	}
	var stopHB func()
	if cfg.Telemetry != nil || cfg.Progress != nil {
		var ew telemetry.EventWriter
		if cfg.Telemetry != nil {
			ew = cfg.Telemetry
			treg := cfg.Telemetry.Registry()
			instrumentSim(treg, s)
			star.EachPort(func(label string, p *netsim.Port) { p.Instrument(treg, label) })
			instrumentTransport(treg, star.Endpoints)
			instrumentFaults(treg, ew, eng, guard)
			instrumentLinks(treg, reg)
			bottleneck := fmt.Sprintf("tor:%d", receiver)
			ts.Publish(treg, ew, bottleneck)
			if qt != nil {
				qt.Publish(treg, ew, bottleneck)
			}
			if rec != nil {
				rec.Publish(treg)
			}
		}
		stopHB = startHeartbeat(s, cfg.Duration, ew, cfg.Progress)
	}
	s.RunUntil(units.Time(cfg.Duration))
	ts.Stop()
	if stopHB != nil {
		stopHB()
	}
	if cfg.Spans != nil {
		end := units.Time(cfg.Duration)
		simRoot := cfg.Spans.SimSpan("sim", cfg.SpanParent, 0, end, ttrace.A("kind", "static"))
		warm := units.Time(startJitterSpan)
		if warm > end {
			warm = end
		}
		cfg.Spans.SimSpan("warmup", simRoot, 0, warm)
		if end > warm {
			cfg.Spans.SimSpan("measure", simRoot, warm, end)
		}
	}

	res := &StaticResult{
		Scheme:  cfg.Scheme,
		Samples: ts.Samples(),
		Drops:   port.Stats().Dropped,
		Trace:   rec,
	}
	if qt != nil {
		res.QueueTrace = qt.Samples()
	}
	if eng != nil {
		res.FaultTimeline = eng.Timeline()
		res.LinkLost, res.LinkCorrupted = reg.Totals()
	}
	if guard != nil {
		guard.Recheck(s.Now())
		res.Violations = guard.Violations()
		res.ViolationTotal = guard.Total()
	}
	return res, nil
}

// AvgThroughput averages per-queue throughput over samples in [from, to).
func (r *StaticResult) AvgThroughput(queue int, from, to units.Time) units.Rate {
	var sum, n int64
	for _, s := range r.Samples {
		if s.At <= from || s.At > to {
			continue
		}
		sum += int64(s.PerQueue[queue])
		n++
	}
	if n == 0 {
		return 0
	}
	return units.Rate(sum / n)
}

// AvgAggregate averages total throughput over samples in (from, to].
func (r *StaticResult) AvgAggregate(from, to units.Time) units.Rate {
	var sum, n int64
	for _, s := range r.Samples {
		if s.At <= from || s.At > to {
			continue
		}
		sum += int64(s.Aggregate)
		n++
	}
	if n == 0 {
		return 0
	}
	return units.Rate(sum / n)
}

// ShareOf returns queue's mean share of the aggregate over (from, to].
func (r *StaticResult) ShareOf(queue int, from, to units.Time) float64 {
	var q, agg units.Rate
	for _, s := range r.Samples {
		if s.At <= from || s.At > to {
			continue
		}
		q += s.PerQueue[queue]
		agg += s.Aggregate
	}
	if agg == 0 {
		return 0
	}
	return float64(q) / float64(agg)
}

// JainOver computes the mean Jain index across samples in (from, to],
// considering only the queues listed as active.
func (r *StaticResult) JainOver(active []int, from, to units.Time) float64 {
	var sum float64
	var n int
	for _, s := range r.Samples {
		if s.At <= from || s.At > to {
			continue
		}
		xs := make([]float64, 0, len(active))
		for _, q := range active {
			xs = append(xs, float64(s.PerQueue[q]))
		}
		sum += metrics.Jain(xs)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
