package experiment

import (
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/netsim"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
)

// FaultOutcome is what a packet run's fault schedule and guardrail left
// behind; StaticResult and DynamicResult embed it.
type FaultOutcome struct {
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
func (w *packetWorld) finish(out *FaultOutcome) {
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
