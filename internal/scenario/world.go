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

// maxMTU is the largest frame a cell accepts, the IPv4 datagram limit; a
// packet's payload field holds any payload up to it.
const maxMTU = 65535

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
	if mtu > maxMTU {
		return &ValidationError{"mtu", fmt.Sprintf("must be at most %d bytes, the largest IPv4 datagram, got %d", maxMTU, mtu)}
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
func factories(s experiment.Scheme, k sched.Kind, p experiment.SchemeParams) topology.Factories {
	return topology.Factories{
		NewScheduler: func(n int) (sched.Scheduler, error) { return k.New(p.Weights, p.MTU, n) },
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
