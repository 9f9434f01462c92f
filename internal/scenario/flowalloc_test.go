package scenario

import (
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// flowAllocs is the mallocs of one flow on eng, started and run to its
// completion after warm flows have grown every free list, ring and map to
// its working size. Every flow passes one shared completion callback, as
// runDynamic's launch hands out a record's closure made once, so what is
// counted is the engine's own per-flow work.
func flowAllocs(t *testing.T, s *sim.Simulator, eng cellEngine, hosts, classes int) float64 {
	t.Helper()
	var id packet.FlowID
	done := new(int)
	complete := func(units.Duration) { *done++ }
	flow := func() {
		id++
		want := *done + 1
		eng.start(s.Now(), flowStart{
			id: id, src: int(id) % (hosts - 1), dst: hosts - 1, class: 1 + int(id)%(classes-1),
			// Past PIAS's demotion threshold, so a flow uses both its classes.
			size: 150 * units.KB,
			done: complete,
		})
		for *done < want {
			if !s.Step() {
				t.Fatalf("flow %d never completed", id)
			}
		}
	}
	for i := 0; i < 64; i++ {
		flow()
	}
	return testing.AllocsPerRun(200, flow)
}

// TestPacketFlowAllocatesOnlyItsState holds a packet-engine flow to no
// malloc of its own. Its sender and receiver come from the network's flow
// table, one slab per 32 flows, and its PIAS classifier, its retransmission
// timer and its hosts' send functions are shared or built once; each used to
// cost a malloc or more per flow, and so did its completion callback before
// runDynamic handed out reusable completion records.
func TestPacketFlowAllocatesOnlyItsState(t *testing.T) {
	doc := testbedFCT(1)
	doc.Scheme, doc.Load = string(experiment.DynaQ), 0.6
	r := load(t, doc)
	s := sim.New()
	eng, err := newPacketEngine(s, r)
	if err != nil {
		t.Fatal(err)
	}
	n := flowAllocs(t, s, eng, r.g.Hosts(), doc.Queues)
	t.Logf("%v mallocs per packet flow", n)
	if n > 0 {
		t.Errorf("a packet flow makes %v mallocs, want 0: its state comes from the flow table's slabs", n)
	}
}

// TestFluidFlowAllocatesOnlyItsState holds a flow-engine flow to no malloc
// of its own: its arrival record comes from the engine's free list, its path
// from the path arena, and its state from the engine's flow slice.
func TestFluidFlowAllocatesOnlyItsState(t *testing.T) {
	doc := smallLeafSpine()
	doc.Engine, doc.Load = string(experiment.EngineFlow), 0.6
	r := load(t, doc)
	s := sim.New()
	eng, err := newFluidEngine(s, r)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.fe.Close()
	n := flowAllocs(t, s, eng, r.g.Hosts(), doc.Queues)
	t.Logf("%v mallocs per fluid flow", n)
	if n > 0 {
		t.Errorf("a fluid flow makes %v mallocs, want 0: its arrival record, path and state are reused or carved", n)
	}
}

// instantEngine completes every flow the moment it starts, so a run through
// it is runDynamic's own work: arrivals, draws, launches and records.
type instantEngine struct{}

func (instantEngine) start(_ units.Time, f flowStart)                { f.done(units.Microsecond) }
func (instantEngine) instrument(*telemetry.Registry, *telemetry.Run) {}
func (instantEngine) finish(*experiment.DynamicResult)               {}

// TestArrivalsAllocateOnlyTheCompletion holds runDynamic's offered traffic
// to what growing the FCT records costs: the arrival events carry their
// generator's record instead of a closure each, and a flow's completion
// record comes from the run's free list, made only while the flows in flight
// climb to a new high (one here, as instantEngine completes each flow as it
// starts). Each flow made its own completion closure before, one malloc per
// offered flow. It compares runs of two lengths, so what a run allocates
// once cancels out.
func TestArrivalsAllocateOnlyTheCompletion(t *testing.T) {
	runAllocs := func(flows int) float64 {
		doc := testbedFCT(1)
		doc.Scheme, doc.Load, doc.Flows = string(experiment.DynaQ), 0.6, flows
		doc.MaxRuntimeS = 3600 // simulated; the flows take no time to run
		r := load(t, doc)
		return testing.AllocsPerRun(3, func() {
			res, err := runDynamic(r, func(*sim.Simulator, *Runner) (cellEngine, error) { return instantEngine{}, nil })
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != flows {
				t.Fatalf("%d of %d flows completed", res.Completed, flows)
			}
		})
	}
	const short, long = 1000, 5000
	perFlow := (runAllocs(long) - runAllocs(short)) / (long - short)
	t.Logf("%.3f mallocs per offered flow", perFlow)
	if perFlow > 0.1 {
		t.Errorf("%.3f mallocs per offered flow, want at most 0.1: what growing the FCT records costs", perFlow)
	}
}
