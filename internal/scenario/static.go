package scenario

import (
	"fmt"
	"math/rand"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// maxStaticSenders bounds the sender hosts of one static run: the paper's
// most extreme figure (Fig. 12 at full scale) uses 4080, and every host is a
// NIC port, an endpoint and a switch port built before the run starts.
const maxStaticSenders = 1 << 14

// staticFabric checks a static document's queues, specs, duration and trace
// stride, resolves its cell and builds its star: the senders first, then the
// own_sink specs' sinks in reverse spec order, the receiver last. All flows
// but an own_sink spec's sink at the receiver, whose switch port is the
// measured bottleneck. The loader has already refused negative times.
func (r *Runner) staticFabric() (*fabric.Graph, error) {
	d := &r.doc
	if err := checkQueues(d.Queues, 1); err != nil {
		return nil, err
	}
	switch {
	case len(d.Specs) == 0:
		return nil, &ValidationError{"specs", "static run needs at least one queue spec"}
	case d.duration(nil) <= 0:
		return nil, &ValidationError{"duration_s", "static run needs a positive duration"}
	case d.TraceStride < 0:
		return nil, &ValidationError{"queue_trace_stride", "queue trace stride must not be negative"}
	}
	if err := r.resolve(fabric.Star); err != nil {
		return nil, err
	}
	senders, sinks, flows := 0, 0, 0
	for i := range d.Specs {
		spec := &d.Specs[i]
		field := func(name string) string { return fmt.Sprintf("specs[%d].%s", i, name) }
		switch {
		case spec.Flows <= 0:
			return nil, &ValidationError{field("flows"), "queue spec needs flows > 0"}
		case spec.Flows > int(transport.MaxFlowID)-flows:
			return nil, &ValidationError{field("flows"), fmt.Sprintf("more than %d flows in total, where flow ids end", transport.MaxFlowID)}
		case spec.Class < 0 || spec.Class >= d.Queues:
			return nil, &ValidationError{field("class"), fmt.Sprintf("class %d outside [0, %d)", spec.Class, d.Queues)}
		case spec.Hosts < 0 || spec.Hosts > maxStaticSenders:
			return nil, &ValidationError{field("hosts"), fmt.Sprintf("hosts %d outside [0, %d]", spec.Hosts, maxStaticSenders)}
		case spec.SizeB < 0:
			return nil, &ValidationError{field("size_bytes"), "flow size must not be negative"}
		}
		hosts := spec.hosts()
		if shared := min(hosts, senders); spec.SharedHosts < 0 || spec.SharedHosts > shared {
			return nil, &ValidationError{field("shared_hosts"), fmt.Sprintf("shared hosts %d outside [0, %d], the spec's hosts that earlier specs have", spec.SharedHosts, shared)}
		}
		if senders += hosts - spec.SharedHosts; senders > maxStaticSenders {
			return nil, &ValidationError{field("hosts"), fmt.Sprintf("more than %d sender hosts in total", maxStaticSenders)}
		}
		if spec.OwnSink {
			sinks++
		}
		flows += spec.Flows
	}
	g, err := newStar(senders+sinks+1, d.rate(nil), "specs")
	return g, refusal(err)
}

// startJitterSpan spreads flow starts over the first milliseconds like
// staggered real senders; synchronized microsecond-identical starts produce
// loss patterns no testbed exhibits.
const startJitterSpan = 5 * units.Millisecond

// runStatic runs a static document and returns its measurements.
func (r *Runner) runStatic() (*experiment.StaticResult, error) {
	d := &r.doc
	mss := r.params.MTU - transport.HeaderSize
	minRTO := d.minRTO(nil)
	s := sim.New()
	w, err := newPacketWorld(s, r.g, r.network(), d.Faults, d.Seed)
	if err != nil {
		return nil, err
	}
	receiver := r.g.Hosts() - 1
	sink := receiver
	rng := rand.New(rand.NewSource(d.Seed))
	fct := metrics.NewFCTCollector()

	var flowID packet.FlowID
	host := 0
	for i, spec := range d.Specs {
		first, dst := host-spec.SharedHosts, receiver
		if spec.OwnSink {
			sink--
			dst = sink
		}
		size := units.ByteSize(spec.SizeB)
		var done func(units.Duration)
		if size > 0 {
			done = func(t units.Duration) { fct.Add(size, t) }
		}
		start, spacing, stopAt := spec.times(nil, i)
		newCtrl := r.ctrls[i]
		hosts := spec.hosts()
		var senders []*transport.Sender
		for f := 0; f < spec.Flows; f++ {
			ep := w.net.Endpoints[first+f%hosts]
			flowID++
			id := flowID
			at := start + units.Duration(f)*spacing
			if spacing == 0 {
				at += units.Duration(rng.Int63n(int64(startJitterSpan)))
			}
			s.At(units.Time(at), func() {
				snd, err := ep.StartFlow(transport.FlowConfig{
					Flow:       id,
					Dst:        dst,
					Class:      spec.Class,
					Size:       size,
					MSS:        mss,
					Ctrl:       newCtrl(),
					ECN:        spec.ECN,
					MinRTO:     minRTO,
					OnComplete: done,
				})
				if err != nil {
					panic(err) // duplicate ids cannot happen: ids are sequential
				}
				senders = append(senders, snd)
			})
		}
		if stopAt > 0 {
			s.At(units.Time(stopAt), func() {
				for _, snd := range senders {
					snd.Stop()
				}
			})
		}
		host = first + hosts
	}

	port := w.net.HostPort(receiver)
	rec := r.trace
	if rec != nil {
		rec.Attach(port)
	}
	if d.Guard {
		w.watch()
	}
	bottleneck := fmt.Sprintf("tor:%d", receiver)
	ts, stopSampling := newThroughputSampler(s, port, d.sampleEvery(nil), r.hooks.run, bottleneck)
	var qt *queueTrace
	if d.TraceStride > 0 {
		qt = newQueueTrace(port, d.TraceStride, r.hooks.run, bottleneck)
	}
	duration := d.duration(nil)
	end := units.Time(duration)
	r.hooks.observe(s, duration, func(reg *telemetry.Registry, run *telemetry.Run) {
		w.instrument(reg, run)
		staticSeries(reg, ts, qt, rec)
	}, func() {
		s.RunUntil(end)
		stopSampling()
	})
	if spans := r.hooks.spans; spans != nil {
		root := r.hooks.simSpan(end, trace.A("kind", "static"))
		warm := min(units.Time(startJitterSpan), end)
		spans.SimSpan("warmup", root, 0, warm)
		if end > warm {
			spans.SimSpan("measure", root, warm, end)
		}
	}

	stats := port.Stats()
	res := &experiment.StaticResult{
		Samples:    ts.samples,
		Drops:      stats.Dropped,
		QueueDrops: make([]int64, d.Queues),
		Evicted:    stats.Evicted,
		FCT:        fct,
	}
	for q := range res.QueueDrops {
		res.QueueDrops[q] = port.QueueDrops(q)
	}
	if qt != nil {
		res.QueueTrace = qt.samples
	}
	w.finish(&res.FaultOutcome)
	return res, nil
}

// throughputSampler periodically differences the bottleneck's per-queue
// transmit counters: the paper's "measure per-queue throughput every 0.5
// seconds" (testbed) / "every 10ms" (simulation). It samples on the
// simulator's ticker (sim.Every), so long runs sample without allocating
// events. With a run attached, each sample is also a "throughput" event
// carrying the per-queue vector.
type throughputSampler struct {
	port    *netsim.Port
	prev    []units.ByteSize
	samples []metrics.ThroughputSample
	run     *telemetry.Run // nil without telemetry
	label   string
}

// newThroughputSampler attaches a sampler to port with the given interval
// and starts it immediately; stop halts it.
func newThroughputSampler(s *sim.Simulator, port *netsim.Port, interval units.Duration, run *telemetry.Run, label string) (ts *throughputSampler, stop func()) {
	ts = &throughputSampler{
		port:  port,
		prev:  make([]units.ByteSize, port.NumQueues()),
		run:   run,
		label: label,
	}
	return ts, s.Every(interval, func() { ts.sample(s.Now(), interval) })
}

func (ts *throughputSampler) sample(now units.Time, interval units.Duration) {
	n := ts.port.NumQueues()
	per := make([]units.Rate, n)
	var agg units.Rate
	for i := 0; i < n; i++ {
		cur := ts.port.QueueTxBytes(i)
		per[i] = units.Throughput(cur-ts.prev[i], interval)
		ts.prev[i] = cur
		agg += per[i]
	}
	ts.samples = append(ts.samples, metrics.ThroughputSample{At: now, PerQueue: per, Aggregate: agg})
	if ts.run == nil {
		return
	}
	bps := make([]int64, n)
	for i, r := range per {
		bps[i] = int64(r)
	}
	ts.run.Event(now, "throughput",
		telemetry.F("port", ts.label),
		telemetry.F("agg_bps", int64(agg)),
		telemetry.F("bps", bps))
}

// queueTrace records the bottleneck's per-queue occupancy on every enqueue
// and dequeue, the paper's queue-evolution measurement ("we measure
// per-queue buffer occupancy every enqueueing and dequeueing operations and
// obtain 1K sequential samples"), keeping every stride-th sample so memory
// stays bounded on long runs. With a run attached, each kept sample is also
// a "qlen" event carrying the per-queue vector.
type queueTrace struct {
	stride  int
	count   int
	samples []metrics.QueueSample
	run     *telemetry.Run // nil without telemetry
	label   string
}

// newQueueTrace attaches a trace to port, keeping every stride-th sample
// (stride 1 keeps all).
func newQueueTrace(port *netsim.Port, stride int, run *telemetry.Run, label string) *queueTrace {
	qt := &queueTrace{stride: max(stride, 1), run: run, label: label}
	port.Observe(qt)
	return qt
}

// ObservePort implements netsim.PortObserver.
func (qt *queueTrace) ObservePort(now units.Time, p *netsim.Port) {
	qt.count++
	if qt.count%qt.stride != 0 {
		return
	}
	per := make([]units.ByteSize, p.NumQueues())
	for i := range per {
		per[i] = p.QueueLen(i)
	}
	qt.samples = append(qt.samples, metrics.QueueSample{At: now, PerQueue: per})
	if qt.run == nil {
		return
	}
	bytes := make([]int64, len(per))
	for i, b := range per {
		bytes[i] = int64(b)
	}
	qt.run.Event(now, "qlen",
		telemetry.F("port", qt.label),
		telemetry.F("bytes", bytes))
}
