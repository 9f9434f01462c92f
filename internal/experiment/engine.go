package experiment

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/flowsim"
	"dynaq/internal/packet"
	"dynaq/internal/pias"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// EngineMode selects the fidelity of a dynamic-flow run: the per-packet
// discrete-event engine, the flow-level fluid engine, or the hybrid that
// packetizes individual ports only while buffer precision matters.
type EngineMode string

// Engine modes.
const (
	EnginePacket EngineMode = "packet"
	EngineFlow   EngineMode = "flow"
	EngineHybrid EngineMode = "hybrid"
)

// ParseEngineMode maps a flag/scenario string to an EngineMode; the empty
// string is the packet default.
func ParseEngineMode(s string) (EngineMode, error) {
	switch m := EngineMode(s); m {
	case "", EnginePacket:
		return EnginePacket, nil
	case EngineFlow, EngineHybrid:
		return m, nil
	default:
		return "", fmt.Errorf("experiment: unknown engine %q (want packet, flow or hybrid)", s)
	}
}

// flowStart is one generated flow: the traffic RunDynamic offers is the same
// sequence of these on every engine.
type flowStart struct {
	id       packet.FlowID
	src, dst int
	class    int
	size     units.ByteSize
	done     func(fct units.Duration)
}

// cellEngine is what RunDynamic needs from a fidelity: everything else —
// the fabric, the arrival processes, the run loop — is shared.
type cellEngine interface {
	// start begins f at the current simulated time at.
	start(at units.Time, f flowStart)
	// instrument registers the engine's telemetry series.
	instrument(reg *telemetry.Registry, run *telemetry.Run)
	// finish runs once the run loop has stopped and folds the engine's
	// outcome into res.
	finish(res *DynamicResult)
}

// newCellEngine builds the fidelity cfg.Engine names on s.
func newCellEngine(s *sim.Simulator, g *fabric.Graph, cfg *DynamicConfig) (cellEngine, error) {
	if cfg.Engine == EnginePacket {
		return newPacketEngine(s, g, cfg)
	}
	return newFluidEngine(s, g, cfg)
}

// fluid is the flowsim configuration of cfg's cell on g.
func (cfg *DynamicConfig) fluid(g *fabric.Graph) flowsim.Config {
	return flowsim.Config{
		Topo:       g,
		Queues:     cfg.Queues,
		Weights:    cfg.Params.Weights,
		Buffer:     cfg.Buffer,
		MTU:        cfg.MTU,
		MSS:        cfg.MTU - transport.HeaderSize,
		RTT:        cfg.Params.BaseRTT,
		Spans:      cfg.Spans,
		SpanParent: cfg.SpanParent,
		Hybrid:     cfg.Engine == EngineHybrid,
		NewAdmission: func() (buffer.Admission, error) {
			return cfg.Scheme.NewAdmission(cfg.Params, cfg.Buffer, cfg.Queues)
		},
	}
}

// packetEngine runs flows as per-packet transfers over a packetWorld, with
// SPQ+DRR scheduling and two-level PIAS classification.
type packetEngine struct {
	*packetWorld
	cfg *DynamicConfig
}

func newPacketEngine(s *sim.Simulator, g *fabric.Graph, cfg *DynamicConfig) (*packetEngine, error) {
	tc := cfg.network(SchedSPQDRR)
	tc.FailureAware, tc.DetectionDelay = cfg.FailureAware, cfg.DetectionDelay
	w, err := newPacketWorld(s, g, tc, cfg.Faults, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Guard {
		w.watch()
	}
	return &packetEngine{packetWorld: w, cfg: cfg}, nil
}

func (e *packetEngine) start(_ units.Time, f flowStart) {
	ctrl := transport.Controller(nil)
	if e.cfg.DCTCP {
		ctrl = transport.NewDCTCP()
	}
	if _, err := e.net.Endpoints[f.src].StartFlow(transport.FlowConfig{
		Flow:       f.id,
		Dst:        f.dst,
		Class:      f.class,
		ClassOf:    pias.ClassOf(f.class),
		Size:       f.size,
		MSS:        e.cfg.MTU - transport.HeaderSize,
		Ctrl:       ctrl,
		ECN:        e.cfg.DCTCP,
		MinRTO:     e.cfg.MinRTO,
		OnComplete: f.done,
	}); err != nil {
		panic(err) // duplicate ids cannot happen: ids are sequential
	}
}

func (e *packetEngine) finish(res *DynamicResult) { e.packetWorld.finish(&res.FaultOutcome) }

// fluidEngine runs flows as fluid rate processes in a flowsim.Engine; under
// EngineHybrid congested ports are packetized through the real scheme
// admission. It builds no netsim ports or links, which is why fault
// schedules, the guardrail and failure-aware routing need the packet engine.
type fluidEngine struct {
	fe *flowsim.Engine
}

func newFluidEngine(s *sim.Simulator, g *fabric.Graph, cfg *DynamicConfig) (*fluidEngine, error) {
	fe, err := flowsim.New(s, cfg.fluid(g))
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

func (e *fluidEngine) finish(res *DynamicResult) {
	e.fe.Finish()
	stats := e.fe.Stats()
	res.Fluid = &stats
	e.fe.Close()
}
