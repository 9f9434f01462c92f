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
	senders, sinks := 0, 0
	for i := range d.Specs {
		spec := &d.Specs[i]
		field := func(name string) string { return fmt.Sprintf("specs[%d].%s", i, name) }
		switch {
		case spec.Flows <= 0:
			return nil, &ValidationError{field("flows"), "queue spec needs flows > 0"}
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
				var ctrl transport.Controller
				if newCtrl != nil {
					ctrl = newCtrl()
				}
				snd, err := ep.StartFlow(transport.FlowConfig{
					Flow:       id,
					Dst:        dst,
					Class:      spec.Class,
					Size:       size,
					MSS:        mss,
					Ctrl:       ctrl,
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
	var rec *metrics.EventRecorder
	if r.traceEvents > 0 {
		rec, err = metrics.NewEventRecorder(r.traceEvents)
		if err != nil {
			return nil, err
		}
		rec.Only(netsim.EvDrop, netsim.EvMark, netsim.EvEvict, netsim.EvDequeueDrop)
		rec.Attach(port)
	}
	if d.Guard {
		w.watch()
	}
	ts := metrics.NewThroughputSampler(s, port, d.sampleEvery(nil))
	var qt *metrics.QueueTrace
	if d.TraceStride > 0 {
		qt = metrics.NewQueueTrace(port, d.TraceStride)
	}
	duration := d.duration(nil)
	end := units.Time(duration)
	r.hooks.observe(s, duration, func(reg *telemetry.Registry, run *telemetry.Run) {
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
		Scheme:     experiment.Scheme(d.Scheme),
		Samples:    ts.Samples(),
		Drops:      stats.Dropped,
		QueueDrops: make([]int64, d.Queues),
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
