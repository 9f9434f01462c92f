package experiment_test

import (
	"reflect"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
)

// staticFault runs the testbed rack under a lossy switch port and a flapping
// sender NIC, guardrail armed.
func staticFault(t *testing.T, seed int64) *experiment.StaticResult {
	doc := staticCell(experiment.DynaQ, 4, 1.5, seed,
		scenario.Spec{Class: 1, Flows: 2, Hosts: 1},
		scenario.Spec{Class: 2, Flows: 8, Hosts: 1})
	doc.SampleMs = 100
	doc.Guard = true
	doc.Faults = []faults.Spec{
		{Kind: faults.KindLoss, Target: "tor:2", AtS: 0, Rate: 0.002},
		{Kind: faults.KindFlap, Target: "host0:nic", AtS: 0.3, UntilS: 0.8, PeriodS: 0.2, JitterS: 0.02},
	}
	return runCell(t, doc).Static
}

// TestStaticFaultRunReplays is the replay acceptance test: the same
// scenario + seed must reproduce the identical fault timeline and the
// identical measurements, sample for sample.
func TestStaticFaultRunReplays(t *testing.T) {
	r1, r2 := staticFault(t, 3), staticFault(t, 3)
	if !reflect.DeepEqual(r1.FaultTimeline, r2.FaultTimeline) {
		t.Fatalf("fault timelines diverged:\n%v\n%v", r1.FaultTimeline, r2.FaultTimeline)
	}
	if !reflect.DeepEqual(r1.Samples, r2.Samples) {
		t.Fatal("throughput samples diverged between identical runs")
	}
	if r1.LinkLost != r2.LinkLost || r1.Drops != r2.Drops {
		t.Fatalf("counters diverged: lost %d/%d drops %d/%d",
			r1.LinkLost, r2.LinkLost, r1.Drops, r2.Drops)
	}
	if len(r1.FaultTimeline) < 4 {
		t.Fatalf("flap schedule produced only %d transitions", len(r1.FaultTimeline))
	}
	if r1.LinkLost == 0 {
		t.Fatal("faults blackholed no packets")
	}
	// A different seed must shift the jittered flap timeline.
	r3 := staticFault(t, 4)
	if reflect.DeepEqual(r1.FaultTimeline, r3.FaultTimeline) {
		t.Fatal("different seeds produced identical jittered timelines")
	}
}

// TestStaticFaultRunGuardClean: DynaQ under flap + loss must not violate a
// single invariant.
func TestStaticFaultRunGuardClean(t *testing.T) {
	res := staticFault(t, 3)
	if res.ViolationTotal != 0 {
		t.Fatalf("guardrail recorded %d violations, first: %v",
			res.ViolationTotal, res.Violations[0])
	}
}

// dynamicFault runs a small leaf-spine under a flapping spine and a lossy
// uplink, with failure-aware routing and the guardrail armed.
func dynamicFault(t *testing.T, seed int64) *experiment.DynamicResult {
	return runCell(t, scenario.Document{
		Kind:         "fct",
		Scheme:       string(experiment.DynaQ),
		Topo:         string(fabric.LeafSpine),
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		RateGbps:     10,
		BufferB:      192000,
		Queues:       4,
		RTTUs:        40,
		Load:         0.4,
		Flows:        60,
		Workloads:    []string{"websearch"},
		MinRTOMs:     5,
		Seed:         seed,
		MaxRuntimeS:  20,
		Guard:        true,
		FailureAware: true,
		DetectMs:     0.5,
		Faults: []faults.Spec{
			{Kind: faults.KindFlap, Target: "spine0", AtS: 0.002, UntilS: 0.03, PeriodS: 0.01, JitterS: 0.001},
			{Kind: faults.KindLoss, Target: "leaf0:spine1", AtS: 0, Rate: 0.005},
		},
	}).Dynamic
}

// TestDynamicFaultRunReplays covers the FCT side of the replay criterion:
// leaf-spine under a flapping spine and a lossy uplink, twice, identically.
func TestDynamicFaultRunReplays(t *testing.T) {
	r1, r2 := dynamicFault(t, 5), dynamicFault(t, 5)
	if !reflect.DeepEqual(r1.FaultTimeline, r2.FaultTimeline) {
		t.Fatalf("fault timelines diverged:\n%v\n%v", r1.FaultTimeline, r2.FaultTimeline)
	}
	if r1.Completed != r2.Completed || r1.Generated != r2.Generated {
		t.Fatalf("flow counts diverged: %d/%d vs %d/%d",
			r1.Completed, r1.Generated, r2.Completed, r2.Generated)
	}
	if a, b := r1.FCT.Avg(metrics.AllFlows), r2.FCT.Avg(metrics.AllFlows); a != b {
		t.Fatalf("FCT diverged: %v vs %v", a, b)
	}
	if r1.Completed == 0 {
		t.Fatal("no flows completed under faults")
	}
	if r1.ViolationTotal != 0 {
		t.Fatalf("guardrail recorded %d violations, first: %v",
			r1.ViolationTotal, r1.Violations[0])
	}
	if r1.LinkLost == 0 {
		t.Fatal("faults blackholed no packets")
	}
}
