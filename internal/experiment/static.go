package experiment

import (
	"fmt"
	"math/rand"
	"strconv"

	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// QueueSpec describes one service queue's traffic in a static-flow
// experiment: long-lived iperf-style flows that start together (with a
// small seeded jitter, as real senders would) and optionally stop at a
// fixed time — or, for the §II-C scenarios, finite flows on a script.
type QueueSpec struct {
	// Class is the service queue index.
	Class int
	// Flows is the number of flows feeding this queue.
	Flows int
	// Hosts is the number of distinct sender hosts the flows spread over
	// (defaults to 1: one sender per queue, like the testbed).
	Hosts int
	// SharedHosts of those hosts are the last sender hosts of the specs
	// before this one (0 = fresh hosts only).
	SharedHosts int
	// OwnSink sinks the flows at a host of their own, not the receiver.
	OwnSink bool
	// Size makes every flow finite, of Size payload bytes, timed into
	// StaticResult.FCT (0 = long-lived).
	Size units.ByteSize
	// Spacing scripts the starts: flow i starts at Start + i·Spacing with no
	// jitter (0 = at Start plus a seeded jitter).
	Start, Spacing units.Duration
	// StopAt stops all of this queue's senders at the given time
	// (0 = run until the end).
	StopAt units.Duration
	// Ctrl builds the congestion controller per flow (NewReno when nil).
	Ctrl func() transport.Controller
	// ECN marks this queue's data packets ECT: required when the port
	// scheme marks and Ctrl is DCTCP, and how mixed ECN/non-ECN tenant
	// scenarios tell their tenants apart.
	ECN bool
}

// StaticConfig assembles a static-flow scenario on a star: all flows but
// those of an OwnSink spec sink at one receiver, making its switch port the
// measured bottleneck. Its fault targets are "tor:<i>", "host<i>:nic" and
// the group "tor".
type StaticConfig struct {
	Cell
	Sched SchedKind

	Specs    []QueueSpec
	Duration units.Duration
	// SampleEvery sets the throughput sampling interval (paper: 0.5s
	// testbed, 10ms simulation).
	SampleEvery units.Duration
	// TraceStride, when positive, additionally records the queue-length
	// evolution (Fig. 4), keeping every TraceStride-th sample.
	TraceStride int

	// TraceEvents, when positive, records the last N drop/mark/evict
	// events at the bottleneck port into the result's Trace recorder.
	TraceEvents int
}

// StaticResult is the outcome of a static-flow run.
type StaticResult struct {
	Scheme     Scheme
	Samples    []metrics.ThroughputSample
	QueueTrace []metrics.QueueSample
	// Drops counts enqueue drops at the bottleneck port, QueueDrops the
	// same per service queue, and Evicted the buffered packets the port
	// pushed out.
	Drops      int64
	QueueDrops []int64
	Evicted    int64
	// FCT holds the completion time of every finite flow.
	FCT *metrics.FCTCollector
	// Trace holds the bottleneck event recorder when TraceEvents was set.
	Trace *metrics.EventRecorder

	FaultOutcome
}

// Summary is the run's headline for a manifest, the same keys from every
// tool that writes one.
func (r *StaticResult) Summary() []telemetry.SummaryEntry {
	return []telemetry.SummaryEntry{
		{Key: "drops", Value: strconv.FormatInt(r.Drops, 10)},
		{Key: "samples", Value: strconv.Itoa(len(r.Samples))},
	}
}

// maxStaticSenders bounds the sender hosts of one static run: the paper's
// most extreme figure (Fig. 12 at full scale) uses 4080, and every host is a
// NIC port, an endpoint and a switch port built before the run starts.
const maxStaticSenders = 1 << 14

// normalize validates cfg, fills its defaults and builds its star: the
// senders first, then the OwnSink specs' sinks in reverse spec order, the
// receiver last. Spec-level failures name the offending spec as
// "specs[i].<field>", like the scenario document does. The loader has
// already refused negative times.
func (cfg *StaticConfig) normalize() (*fabric.Graph, error) {
	if err := checkQueues(cfg.Queues, 1); err != nil {
		return nil, err
	}
	switch {
	case len(cfg.Specs) == 0:
		return nil, &ConfigError{"specs", "static run needs at least one queue spec"}
	case cfg.Duration <= 0:
		return nil, &ConfigError{"duration_s", "static run needs a positive duration"}
	case cfg.TraceStride < 0:
		return nil, &ConfigError{"queue_trace_stride", "queue trace stride must not be negative"}
	}
	if err := cfg.resolve(fabric.Star); err != nil {
		return nil, err
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 500 * units.Millisecond
	}

	// Copy the queue specs before defaulting them: cfg arrives by value, but
	// the Specs slice still shares its backing array with the caller's — and
	// parallel cells hand the same specs to concurrent runs.
	cfg.Specs = append([]QueueSpec(nil), cfg.Specs...)
	senders, sinks := 0, 0
	for i := range cfg.Specs {
		spec := &cfg.Specs[i]
		field := func(name string) string { return fmt.Sprintf("specs[%d].%s", i, name) }
		switch {
		case spec.Flows <= 0:
			return nil, &ConfigError{field("flows"), "queue spec needs flows > 0"}
		case spec.Class < 0 || spec.Class >= cfg.Queues:
			return nil, &ConfigError{field("class"), fmt.Sprintf("class %d outside [0, %d)", spec.Class, cfg.Queues)}
		case spec.Hosts < 0 || spec.Hosts > maxStaticSenders:
			return nil, &ConfigError{field("hosts"), fmt.Sprintf("hosts %d outside [0, %d]", spec.Hosts, maxStaticSenders)}
		case spec.Size < 0:
			return nil, &ConfigError{field("size_bytes"), "flow size must not be negative"}
		}
		if spec.Hosts == 0 {
			spec.Hosts = 1
		}
		if shared := min(spec.Hosts, senders); spec.SharedHosts < 0 || spec.SharedHosts > shared {
			return nil, &ConfigError{field("shared_hosts"), fmt.Sprintf("shared hosts %d outside [0, %d], the spec's hosts that earlier specs have", spec.SharedHosts, shared)}
		}
		if senders += spec.Hosts - spec.SharedHosts; senders > maxStaticSenders {
			return nil, &ConfigError{field("hosts"), fmt.Sprintf("more than %d sender hosts in total", maxStaticSenders)}
		}
		if spec.OwnSink {
			sinks++
		}
	}
	g, err := newStar(senders+sinks+1, cfg.Rate, "specs")
	return g, refusal(err)
}

// Validate reports, as a *ConfigError naming the document key to fix, every
// setting RunStatic would refuse, so a loader refuses the cell at submission
// instead of on a worker: the fault specs, normalize's rules, then the
// checks RunStatic's constructors run (Cell.checkNetwork: one port's
// scheduler and scheme, the fault targets), which RunStatic itself does not
// repeat.
func (cfg StaticConfig) Validate() error {
	if err := faults.Validate(cfg.Faults); err != nil {
		return &ConfigError{"faults", err.Error()}
	}
	g, err := cfg.normalize()
	if err != nil {
		return err
	}
	return cfg.checkNetwork(g, cfg.Sched)
}

// startJitterSpan spreads flow starts over the first milliseconds like
// staggered real senders; synchronized microsecond-identical starts produce
// loss patterns no testbed exhibits.
const startJitterSpan = 5 * units.Millisecond

// RunStatic executes a static-flow scenario and returns its measurements.
func RunStatic(cfg StaticConfig) (*StaticResult, error) {
	g, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	mss := cfg.MTU - transport.HeaderSize
	s := sim.New()
	w, err := newPacketWorld(s, g, cfg.network(cfg.Sched), cfg.Faults, cfg.Seed)
	if err != nil {
		return nil, err
	}
	receiver := g.Hosts() - 1
	sink := receiver
	rng := rand.New(rand.NewSource(cfg.Seed))
	fct := metrics.NewFCTCollector()

	var flowID packet.FlowID
	host := 0
	for _, spec := range cfg.Specs {
		first, dst := host-spec.SharedHosts, receiver
		if spec.OwnSink {
			sink--
			dst = sink
		}
		var done func(units.Duration)
		if spec.Size > 0 {
			done = func(d units.Duration) { fct.Add(spec.Size, d) }
		}
		var senders []*transport.Sender
		for f := 0; f < spec.Flows; f++ {
			ep := w.net.Endpoints[first+f%spec.Hosts]
			flowID++
			id := flowID
			start := spec.Start + units.Duration(f)*spec.Spacing
			if spec.Spacing == 0 {
				start += units.Duration(rng.Int63n(int64(startJitterSpan)))
			}
			s.At(units.Time(start), func() {
				var ctrl transport.Controller
				if spec.Ctrl != nil {
					ctrl = spec.Ctrl()
				}
				snd, err := ep.StartFlow(transport.FlowConfig{
					Flow:       id,
					Dst:        dst,
					Class:      spec.Class,
					Size:       spec.Size,
					MSS:        mss,
					Ctrl:       ctrl,
					ECN:        spec.ECN,
					MinRTO:     cfg.MinRTO,
					OnComplete: done,
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
		host = first + spec.Hosts
	}

	port := w.net.HostPort(receiver)
	var rec *metrics.EventRecorder
	if cfg.TraceEvents > 0 {
		rec, err = metrics.NewEventRecorder(cfg.TraceEvents)
		if err != nil {
			return nil, err
		}
		rec.Only(netsim.EvDrop, netsim.EvMark, netsim.EvEvict, netsim.EvDequeueDrop)
		rec.Attach(port)
	}
	if cfg.Guard {
		w.watch()
	}
	ts := metrics.NewThroughputSampler(s, port, cfg.SampleEvery)
	var qt *metrics.QueueTrace
	if cfg.TraceStride > 0 {
		qt = metrics.NewQueueTrace(port, cfg.TraceStride)
	}
	end := units.Time(cfg.Duration)
	cfg.observe(s, cfg.Duration, func(reg *telemetry.Registry, run *telemetry.Run) {
		w.instrument(reg, run)
		bottleneck := fmt.Sprintf("tor:%d", receiver)
		ts.Publish(reg, run, bottleneck)
		if qt != nil {
			qt.Publish(reg, run, bottleneck)
		}
		if rec != nil {
			rec.Publish(reg)
		}
	}, func() {
		s.RunUntil(end)
		ts.Stop()
	})
	if cfg.Spans != nil {
		root := cfg.simSpan(end, trace.A("kind", "static"))
		warm := min(units.Time(startJitterSpan), end)
		cfg.Spans.SimSpan("warmup", root, 0, warm)
		if end > warm {
			cfg.Spans.SimSpan("measure", root, warm, end)
		}
	}

	stats := port.Stats()
	res := &StaticResult{
		Scheme:     cfg.Scheme,
		Samples:    ts.Samples(),
		Drops:      stats.Dropped,
		QueueDrops: make([]int64, cfg.Queues),
		Evicted:    stats.Evicted,
		FCT:        fct,
		Trace:      rec,
	}
	for q := range res.QueueDrops {
		res.QueueDrops[q] = port.QueueDrops(q)
	}
	if qt != nil {
		res.QueueTrace = qt.Samples()
	}
	w.finish(&res.FaultOutcome)
	return res, nil
}

// Window returns the samples taken in (from, to]; samples are in time order.
func (r *StaticResult) Window(from, to units.Time) []metrics.ThroughputSample {
	lo := 0
	for lo < len(r.Samples) && r.Samples[lo].At <= from {
		lo++
	}
	hi := lo
	for hi < len(r.Samples) && r.Samples[hi].At <= to {
		hi++
	}
	return r.Samples[lo:hi]
}

// meanRate averages rate(sample) over the samples in (from, to].
func (r *StaticResult) meanRate(from, to units.Time, rate func(metrics.ThroughputSample) units.Rate) units.Rate {
	win := r.Window(from, to)
	if len(win) == 0 {
		return 0
	}
	var sum int64
	for _, s := range win {
		sum += int64(rate(s))
	}
	return units.Rate(sum / int64(len(win)))
}

// AvgThroughput averages per-queue throughput over samples in (from, to].
func (r *StaticResult) AvgThroughput(queue int, from, to units.Time) units.Rate {
	return r.meanRate(from, to, func(s metrics.ThroughputSample) units.Rate { return s.PerQueue[queue] })
}

// AvgAggregate averages total throughput over samples in (from, to].
func (r *StaticResult) AvgAggregate(from, to units.Time) units.Rate {
	return r.meanRate(from, to, func(s metrics.ThroughputSample) units.Rate { return s.Aggregate })
}

// ShareOf returns queue's mean share of the aggregate over (from, to].
func (r *StaticResult) ShareOf(queue int, from, to units.Time) float64 {
	var q, agg units.Rate
	for _, s := range r.Window(from, to) {
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
	win := r.Window(from, to)
	if len(win) == 0 {
		return 0
	}
	var sum float64
	xs := make([]float64, len(active))
	for _, s := range win {
		for i, q := range active {
			xs[i] = float64(s.PerQueue[q])
		}
		sum += metrics.Jain(xs)
	}
	return sum / float64(len(win))
}
