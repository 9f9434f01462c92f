package scenario

import (
	"dynaq/internal/buffer"
	"dynaq/internal/experiment"
	"dynaq/internal/flowsim"
	"dynaq/internal/packet"
	"dynaq/internal/pias"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// flowStart is one generated flow: the traffic runDynamic offers is the same
// sequence of these on every engine.
type flowStart struct {
	id       packet.FlowID
	src, dst int
	class    int
	size     units.ByteSize
	done     func(fct units.Duration)
}

// cellEngine is what runDynamic needs from a fidelity: everything else —
// the fabric, the arrival processes, the run loop — is shared.
type cellEngine interface {
	// start begins f at the current simulated time at.
	start(at units.Time, f flowStart)
	// instrument registers the engine's telemetry series.
	instrument(reg *telemetry.Registry, run *telemetry.Run)
	// finish runs once the run loop has stopped and folds the engine's
	// outcome into res.
	finish(res *experiment.DynamicResult)
}

// newCellEngine builds the fidelity r's engine names on s.
func newCellEngine(s *sim.Simulator, r *Runner) (cellEngine, error) {
	if r.engine == experiment.EnginePacket {
		return newPacketEngine(s, r)
	}
	return newFluidEngine(s, r)
}

// fluid is the flowsim configuration of r's cell.
func (r *Runner) fluid() flowsim.Config {
	buf, queues := units.ByteSize(r.doc.BufferB), r.doc.Queues
	return flowsim.Config{
		Topo:       r.g,
		Queues:     queues,
		Weights:    r.params.Weights,
		Buffer:     buf,
		MTU:        r.params.MTU,
		MSS:        r.params.MTU - transport.HeaderSize,
		RTT:        r.params.BaseRTT,
		Spans:      r.hooks.spans,
		SpanParent: r.hooks.spanParent,
		Hybrid:     r.engine == experiment.EngineHybrid,
		NewAdmission: func() (buffer.Admission, error) {
			return experiment.Scheme(r.doc.Scheme).NewAdmission(r.params, buf, queues)
		},
	}
}

// packetEngine runs flows as per-packet transfers over a packetWorld, with
// SPQ+DRR scheduling and two-level PIAS classification.
type packetEngine struct {
	*packetWorld
	dctcp  bool
	mss    units.ByteSize
	minRTO units.Duration
}

func newPacketEngine(s *sim.Simulator, r *Runner) (*packetEngine, error) {
	d := &r.doc
	tc := r.network()
	tc.FailureAware, tc.DetectionDelay = d.FailureAware, d.detectionDelay(nil)
	w, err := newPacketWorld(s, r.g, tc, d.Faults, d.Seed)
	if err != nil {
		return nil, err
	}
	if d.Guard {
		w.watch()
	}
	return &packetEngine{packetWorld: w, dctcp: d.DCTCP, mss: r.params.MTU - transport.HeaderSize, minRTO: d.minRTO(nil)}, nil
}

func (e *packetEngine) start(_ units.Time, f flowStart) {
	ctrl := transport.Controller(nil)
	if e.dctcp {
		ctrl = transport.NewDCTCP()
	}
	if _, err := e.net.Endpoints[f.src].StartFlow(transport.FlowConfig{
		Flow:       f.id,
		Dst:        f.dst,
		Class:      f.class,
		ClassOf:    pias.ClassOf(f.class),
		Size:       f.size,
		MSS:        e.mss,
		Ctrl:       ctrl,
		ECN:        e.dctcp,
		MinRTO:     e.minRTO,
		OnComplete: f.done,
	}); err != nil {
		panic(err) // duplicate ids cannot happen: ids are sequential
	}
}

func (e *packetEngine) finish(res *experiment.DynamicResult) { e.packetWorld.finish(&res.FaultOutcome) }

// fluidEngine runs flows as fluid rate processes in a flowsim.Engine; under
// the hybrid engine congested ports are packetized through the real scheme
// admission. It builds no netsim ports or links, which is why fault
// schedules, the guardrail and failure-aware routing need the packet engine.
type fluidEngine struct {
	fe *flowsim.Engine
}

func newFluidEngine(s *sim.Simulator, r *Runner) (*fluidEngine, error) {
	fe, err := flowsim.New(s, r.fluid())
	if err != nil {
		return nil, err
	}
	return &fluidEngine{fe: fe}, nil
}

func (e *fluidEngine) start(at units.Time, f flowStart) {
	e.fe.ScheduleArrival(at, flowsim.FlowSpec{
		ID: f.id, Src: f.src, Dst: f.dst, Class: f.class, Size: f.size, OnComplete: f.done,
	})
}

func (e *fluidEngine) instrument(reg *telemetry.Registry, _ *telemetry.Run) { e.fe.Instrument(reg) }

func (e *fluidEngine) finish(res *experiment.DynamicResult) {
	e.fe.Finish()
	stats := e.fe.Stats()
	res.Fluid = &stats
	e.fe.Close()
}
