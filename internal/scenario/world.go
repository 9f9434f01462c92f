package scenario

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/netsim"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// packetWorld is the packet-level network of one run, wired from a fabric
// graph, with the fault engine and the invariant guardrail hung on it: the
// one code path for faults, guard, series and outcome of a static and a
// dynamic packet run.
type packetWorld struct {
	sim    *sim.Simulator
	net    *topology.Network
	faults *faults.Engine    // nil without a schedule
	links  *faults.Registry  // nil without a schedule
	guard  *faults.Guardrail // nil until watch
}

// newPacketWorld wires g and applies schedule against its fault registry;
// the fault timeline is a deterministic function of seed.
func newPacketWorld(s *sim.Simulator, g *fabric.Graph, cfg topology.Config, schedule []faults.Spec, seed int64) (*packetWorld, error) {
	net, err := topology.Build(s, g, cfg)
	if err != nil {
		return nil, err
	}
	w := &packetWorld{sim: s, net: net}
	if len(schedule) > 0 {
		w.links = net.FaultRegistry()
		w.faults = faults.NewEngine(s, w.links, seed)
		if err := w.faults.Schedule(schedule); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// resolve checks the scheme, frame and weights every port of the cell
// shares and resolves the scheme's constants against the links of a fabric
// of kind k.
func (r *Runner) resolve(k fabric.Kind) error {
	d := &r.doc
	if _, err := buffer.LookupScheme(d.Scheme); err != nil {
		return &ValidationError{"scheme", err.Error()}
	}
	mtu := units.ByteSize(d.MTU)
	if mtu == 0 {
		mtu = 1500
	}
	if mtu <= transport.HeaderSize {
		return &ValidationError{"mtu", fmt.Sprintf("must exceed the %d-byte TCP/IP header, got %d", transport.HeaderSize, mtu)}
	}
	p := experiment.SchemeParams{Weights: d.Weights, PerQueueK: units.ByteSize(d.PerQueueKB), TCNTarget: d.tcnTarget(nil)}
	r.params = p.Resolved(d.rate(nil), k.BaseRTT(d.delay(nil)), mtu, nil, d.Queues)
	return checkWeights(r.params.Weights, d.Queues)
}

// network is the packet network the cell's fabric is wired as, every switch
// port scheduled by r.sched.
func (r *Runner) network() topology.Config {
	return topology.Config{Delay: r.doc.delay(nil), Buffer: units.ByteSize(r.doc.BufferB), Queues: r.doc.Queues,
		Factories: factories(experiment.Scheme(r.doc.Scheme), r.sched, r.params)}
}

// checkNetwork reports what newPacketWorld would refuse on r.g, without
// wiring it. Every switch port is built from the same arguments, so one
// port's scheduler and scheme, built as topology.Build builds each, stand
// for all. Every fault target must then resolve in the fault registry, each
// of whose links is a stand-in, as Engine.Schedule resolves them before it
// plans.
func (r *Runner) checkNetwork() error {
	f, queues, buf := r.network(), r.doc.Queues, units.ByteSize(r.doc.BufferB)
	if _, err := f.NewScheduler(queues); err != nil {
		return &ValidationError{"queues", err.Error()}
	}
	mem, err := buffer.NewSharedPool(buf)
	if err == nil {
		_, err = f.NewAdmission(buf, queues, mem)
	}
	if err != nil {
		return &ValidationError{"scheme", err.Error()}
	}
	if len(r.doc.Faults) == 0 {
		return nil
	}
	standIn := new(netsim.Link)
	reg := topology.FaultRegistry(r.g, func(int) *netsim.Link { return standIn })
	for i, spec := range r.doc.Faults {
		if _, err := reg.Resolve(spec.Target); err != nil {
			return &ValidationError{"faults", fmt.Sprintf("spec %d: %v", i, err)}
		}
	}
	return nil
}

// factories are the per-port constructors topology.Build calls for scheme
// s under scheduler k.
func factories(s experiment.Scheme, k experiment.SchedKind, p experiment.SchemeParams) topology.Factories {
	weights := p.Weights
	if k == experiment.SchedSPQDRR {
		// The DRR sub-scheduler covers the queues after the priority queue.
		weights = weights[1:]
	}
	return topology.Factories{
		NewScheduler: func(n int) (sched.Scheduler, error) { return k.NewScheduler(weights, p.MTU, n) },
		NewAdmission: func(b units.ByteSize, n int, mem *buffer.SharedPool) (buffer.Admission, error) {
			return buffer.NewScheme(string(s), p, b, n, mem)
		},
	}
}

// watch arms the invariant guardrail on every switch port, after any hook
// already installed there.
func (w *packetWorld) watch() {
	w.guard = faults.NewGuardrail(32)
	w.net.EachPort(w.guard.Watch)
}

// instrument registers the world's series: per-port counters, transport
// totals over all endpoints (cardinality independent of host count), applied
// fault transitions — each also streamed into the event log as it fires —
// the guardrail total and the whole-topology link loss and corruption.
func (w *packetWorld) instrument(reg *telemetry.Registry, run *telemetry.Run) {
	w.net.EachPort(func(label string, p *netsim.Port) { p.Instrument(reg, label) })

	total := func(f func(*transport.Endpoint) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, ep := range w.net.Endpoints {
				t += f(ep)
			}
			return t
		}
	}
	sent := func(f func(transport.SenderStats) int64) func() int64 {
		return total(func(ep *transport.Endpoint) int64 { return f(ep.TotalStats()) })
	}
	reg.CounterFunc("transport_sent_packets_total", sent(func(s transport.SenderStats) int64 { return s.SentPackets }))
	reg.CounterFunc("transport_sent_bytes_total", sent(func(s transport.SenderStats) int64 { return int64(s.SentBytes) }))
	reg.CounterFunc("transport_retransmits_total", sent(func(s transport.SenderStats) int64 { return s.Retransmits }))
	reg.CounterFunc("transport_timeouts_total", sent(func(s transport.SenderStats) int64 { return s.Timeouts }))
	reg.CounterFunc("transport_fast_recoveries_total", sent(func(s transport.SenderStats) int64 { return s.FastRecovers }))
	reg.CounterFunc("transport_echoed_acks_total", sent(func(s transport.SenderStats) int64 { return s.EchoedAcks }))
	reg.CounterFunc("transport_acks_total", total((*transport.Endpoint).AcksSent))
	reg.GaugeFunc("transport_cwnd_bytes", total((*transport.Endpoint).CwndTotal))
	reg.GaugeFunc("transport_flows_active", total(func(ep *transport.Endpoint) int64 { return int64(ep.ActiveFlows()) }))

	if w.faults != nil {
		reg.CounterFunc("faults_transitions_total", func() int64 { return int64(w.faults.Applied()) })
		w.faults.SetObserver(func(tr faults.Transition) {
			run.Event(tr.At, "fault",
				telemetry.F("target", tr.Target),
				telemetry.F("action", tr.Action))
		})
	}
	if w.guard != nil {
		reg.CounterFunc("guard_violations_total", w.guard.Total)
	}
	if w.links != nil {
		reg.CounterFunc("faults_link_lost_total", func() int64 {
			lost, _ := w.links.Totals()
			return lost
		})
		reg.CounterFunc("faults_link_corrupted_total", func() int64 {
			_, corrupted := w.links.Totals()
			return corrupted
		})
	}
}

// finish folds the fault timeline, the link totals and the guardrail's
// verdict (after one last recheck at the current time) into out.
func (w *packetWorld) finish(out *experiment.FaultOutcome) {
	if w.faults != nil {
		out.FaultTimeline = w.faults.Timeline()
		out.LinkLost, out.LinkCorrupted = w.links.Totals()
	}
	if w.guard != nil {
		w.guard.Recheck(w.sim.Now())
		out.Violations = w.guard.Violations()
		out.ViolationTotal = w.guard.Total()
	}
}
