package experiment

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/netsim"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
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

// Cell is what a static and an fct run share: the scheme under test, the
// links, every switch port's buffer and service queues, the frame, the RTO
// floor, the seed, the fault schedule and the guardrail. StaticConfig and
// DynamicConfig embed it.
type Cell struct {
	Scheme Scheme
	// Params carries weights and threshold constants; Rate, BaseRTT and
	// MTU are filled from the links if zero.
	Params SchemeParams

	Rate   units.Rate
	Delay  units.Duration // per-link propagation
	Buffer units.ByteSize
	// Queues counts a port's service queues; an fct run's queue 0 is the
	// shared SPQ queue and its DRR service queues follow.
	Queues int
	MTU    units.ByteSize // 1500 when zero, 9000 for jumbo (Figs. 11/12)

	MinRTO units.Duration
	Seed   int64

	// Faults is the scripted fault schedule, resolved against the network's
	// fault registry (topology.Network.FaultRegistry lists the link names);
	// the timeline is a deterministic function of Seed.
	Faults []faults.Spec
	// Guard wires the invariant guardrail into every switch port, recording
	// Σ T_i == B / T_i ≥ 0 / occupancy / pool / transition violations.
	Guard bool

	Hooks
}

// resolve checks the scheme, frame and weights every port of the cell
// shares, filling what is unset, for a fabric of kind k.
func (c *Cell) resolve(k fabric.Kind) error {
	if _, err := buffer.LookupScheme(string(c.Scheme)); err != nil {
		return &ConfigError{"scheme", err.Error()}
	}
	if c.MTU == 0 {
		c.MTU = 1500
	}
	if c.MTU <= transport.HeaderSize {
		return &ConfigError{"mtu", fmt.Sprintf("must exceed the %d-byte TCP/IP header, got %d", transport.HeaderSize, c.MTU)}
	}
	c.Params = c.Params.Resolved(c.Rate, k.BaseRTT(c.Delay), c.MTU, nil, c.Queues)
	return checkWeights(c.Params.Weights, c.Queues)
}

// network is the packet network the cell's fabric is wired as, every switch
// port scheduled by sched.
func (c *Cell) network(sched SchedKind) topology.Config {
	return topology.Config{Delay: c.Delay, Buffer: c.Buffer, Queues: c.Queues, Factories: Factories(c.Scheme, sched, c.Params, c.MTU)}
}

// checkNetwork reports what newPacketWorld would refuse on g, without wiring
// it. Every switch port is built from the same arguments, so one port's
// scheduler and scheme, built as topology.Build builds each, stand for all.
// Every fault target must then resolve in g's fault registry, each of whose
// links is a stand-in, as Engine.Schedule resolves them before it plans.
func (c *Cell) checkNetwork(g *fabric.Graph, sched SchedKind) error {
	f := c.network(sched)
	if _, err := f.NewScheduler(c.Queues); err != nil {
		return &ConfigError{"queues", err.Error()}
	}
	mem, err := buffer.NewSharedPool(c.Buffer)
	if err == nil {
		_, err = f.NewAdmission(c.Buffer, c.Queues, mem)
	}
	if err != nil {
		return &ConfigError{"scheme", err.Error()}
	}
	if len(c.Faults) == 0 {
		return nil
	}
	standIn := new(netsim.Link)
	reg := topology.FaultRegistry(g, func(int) *netsim.Link { return standIn })
	for i, spec := range c.Faults {
		if _, err := reg.Resolve(spec.Target); err != nil {
			return &ConfigError{"faults", fmt.Sprintf("spec %d: %v", i, err)}
		}
	}
	return nil
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
