package experiment_test

import (
	"encoding/json"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// fatTreeFlow is the fat-tree stress case: the topology whose paper-scale
// instances only the fluid engines can afford. k=4 keeps the test fast (and
// within the packet engine's reach); the shipped scenario uses k=8.
func fatTreeFlow(engine experiment.EngineMode, flows int, seed int64) scenario.Document {
	return scenario.Document{
		Kind:      "fct",
		Scheme:    string(experiment.DynaQ),
		Engine:    string(engine),
		Topo:      string(fabric.FatTree),
		FatTreeK:  4,
		RateGbps:  10,
		BufferB:   192000,
		Queues:    8,
		RTTUs:     40,
		MTU:       1500,
		Load:      0.6,
		Flows:     flows,
		Workloads: []string{"websearch", "datamining"},
		Seed:      seed,
	}
}

// runFlows runs doc, an fct cell.
func runFlows(t testing.TB, doc scenario.Document) *experiment.DynamicResult {
	t.Helper()
	return runCell(t, doc).Dynamic
}

// TestFlowEngineEventBudget is the perf acceptance gate: the flow engine
// must finish the fat-tree stress case in at least 50x fewer discrete
// events than the projected per-packet cost of the same traffic. The
// projection is deliberately conservative: every flow's packets crossing an
// average path (4 store-and-forward hops on a k-ary fat tree, against the
// true worst case of 6), at ~4 events per packet per hop (enqueue, dequeue,
// propagate, ack-side traffic).
func TestFlowEngineEventBudget(t *testing.T) {
	const flows = 2000
	res := runFlows(t, fatTreeFlow(experiment.EngineFlow, flows, 1))
	if res.Completed < flows*99/100 {
		t.Fatalf("only %d/%d flows completed", res.Completed, flows)
	}
	// Projected packet-engine cost from the analytic workload means.
	meanSize := (workload.WebSearch().Mean() + workload.DataMining().Mean()) / 2
	packetsPerFlow := int64((meanSize + 1499) / 1500)
	const hops, eventsPerHop = 4, 4
	projected := int64(flows) * packetsPerFlow * hops * eventsPerHop
	if res.Events <= 0 {
		t.Fatal("flow engine did not report an event count")
	}
	if speedup := projected / res.Events; speedup < 50 {
		t.Fatalf("flow engine used %d events vs %d projected packet events: %dx, want >= 50x",
			res.Events, projected, speedup)
	}
	if res.Fluid == nil || res.Fluid.Recomputes == 0 {
		t.Fatal("flow engine reported no rate recomputations")
	}
}

// TestFlowEngineParallelParity proves trial results do not depend on the
// worker count: the same seeds through RunTrials at 1 and 4 workers must
// produce identical FCT distributions, the property that lets dynaqd fan
// cells out to any fleet shape.
func TestFlowEngineParallelParity(t *testing.T) {
	run := func(workers int) []string {
		out, err := experiment.RunTrials(3, workers, func(trial int) (string, error) {
			data, err := json.Marshal(fatTreeFlow(experiment.EngineFlow, 500, int64(trial+1)))
			if err != nil {
				return "", err
			}
			r, err := scenario.Load(data)
			if err != nil {
				return "", err
			}
			res, err := r.Run()
			if err != nil {
				return "", err
			}
			return fctSignature(res.Dynamic), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d diverged across worker counts:\n  1 worker: %s\n  4 workers: %s",
				i, seq[i], par[i])
		}
	}
}

// fctSignature summarizes a run's FCT distribution precisely enough that
// any nondeterminism shows up as a string mismatch.
func fctSignature(res *experiment.DynamicResult) string {
	sig := ""
	for _, b := range []metrics.Bucket{metrics.AllFlows, metrics.SmallFlows, metrics.LargeFlows} {
		sig += res.FCT.Avg(b).String() + "/" +
			res.FCT.Percentile(b, 0.99).String() + " "
	}
	return sig
}

// TestFlowEngineFidelity is the shape-fidelity golden test: on the Fig8
// quick grid the fluid engine's FCT percentiles must land within a
// committed band of the packet engine's. The fluid model abstracts away
// retransmission timing and per-packet queueing noise, so the band is
// generous — what it pins down is the *shape*: small flows finish in
// hundreds of microseconds, large flows in the same order of magnitude as
// the packet engine, and load ordering is preserved.
func TestFlowEngineFidelity(t *testing.T) {
	type point struct{ pkt, fluid *experiment.DynamicResult }
	type cell func(experiment.EngineMode) scenario.Document
	star := func(load float64) cell {
		return func(e experiment.EngineMode) scenario.Document { return fctCell(e, 200, load, 1) }
	}
	runBoth := func(mk cell) point {
		return point{runFlows(t, mk(experiment.EnginePacket)), runFlows(t, mk(experiment.EngineFlow))}
	}
	ratio := func(a, b units.Duration) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for _, tc := range []struct {
		name string
		mk   cell
	}{
		{"load 0.4", star(0.4)},
		{"load 0.6", star(0.6)},
		// The same fabric graph under both engines, now that the packet
		// engine wires a fat tree too.
		{"fat tree", func(e experiment.EngineMode) scenario.Document { return fatTreeFlow(e, 200, 1) }},
	} {
		p := runBoth(tc.mk)
		if p.pkt.Completed != p.pkt.Generated || p.fluid.Completed != p.fluid.Generated {
			t.Errorf("%s: completed %d/%d packet, %d/%d fluid", tc.name,
				p.pkt.Completed, p.pkt.Generated, p.fluid.Completed, p.fluid.Generated)
		}
		// Committed tolerance: fluid average FCT within 4x of packet on
		// both sides, small-flow p99 within 5x. The fluid model has no
		// per-packet queueing jitter or retransmission tails, so it runs
		// faster; what must not happen is an order-of-magnitude drift.
		if r := ratio(p.fluid.FCT.Avg(metrics.AllFlows), p.pkt.FCT.Avg(metrics.AllFlows)); r < 0.25 || r > 4 {
			t.Errorf("%s: fluid avg FCT %v vs packet %v (ratio %.2f, want within [0.25,4])",
				tc.name, p.fluid.FCT.Avg(metrics.AllFlows), p.pkt.FCT.Avg(metrics.AllFlows), r)
		}
		if r := ratio(p.fluid.FCT.Percentile(metrics.SmallFlows, 0.99), p.pkt.FCT.Percentile(metrics.SmallFlows, 0.99)); r < 0.2 || r > 5 {
			t.Errorf("%s: fluid small p99 %v vs packet %v (ratio %.2f, want within [0.2,5])",
				tc.name, p.fluid.FCT.Percentile(metrics.SmallFlows, 0.99), p.pkt.FCT.Percentile(metrics.SmallFlows, 0.99), r)
		}
	}
	// Load ordering: higher load must not make fluid FCTs faster.
	lo := runBoth(star(0.4))
	hi := runBoth(star(0.8))
	if hi.fluid.FCT.Avg(metrics.AllFlows) < lo.fluid.FCT.Avg(metrics.AllFlows) {
		t.Errorf("fluid avg FCT at load 0.8 (%v) below load 0.4 (%v): load ordering broken",
			hi.fluid.FCT.Avg(metrics.AllFlows), lo.fluid.FCT.Avg(metrics.AllFlows))
	}
}

// TestHybridEngineDemotes checks the hybrid path end to end on the star
// bottleneck: an overloaded downlink must demote at least once, packetize
// real traffic through the scheme admission, and still complete every flow.
func TestHybridEngineDemotes(t *testing.T) {
	res := runFlows(t, fctCell(experiment.EngineHybrid, 300, 0.9, 1))
	if res.Completed != res.Generated {
		t.Fatalf("hybrid run completed %d/%d flows", res.Completed, res.Generated)
	}
	if res.Fluid == nil {
		t.Fatal("hybrid run reported no fluid stats")
	}
	if res.Fluid.Demotions == 0 {
		t.Error("hybrid run at 90% load never demoted the bottleneck")
	}
	if res.Fluid.Demotions > 0 && res.Fluid.PacketizedPackets == 0 {
		t.Error("demoted episodes moved no packetized traffic")
	}
}
