package experiment

import (
	"fmt"

	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// ExtFaults stresses the schemes under scripted network faults, the regime
// the paper never evaluates: does DynaQ's isolation survive link flapping
// and lossy optics, and does the fabric degrade gracefully when a whole
// spine dies?
//
// Two scenarios per scheme, both with the invariant guardrail armed:
//
//  1. Static rack: queue 1 (2 flows) vs queue 2 (16 flows) through the
//     testbed bottleneck, whose egress runs 0.1% random loss the whole
//     time while queue 1's sender NIC flaps mid-run. Columns report the
//     post-flap fairness (Jain over queues 1–2), queue 1's recovered
//     share, and aggregate goodput.
//  2. Leaf-spine FCT: web-search traffic at load 0.5 with failure-aware
//     ECMP (500µs detection) while spine0 flaps and one leaf uplink runs
//     0.5% loss.
//
// The violations column must read zero for every scheme: the guardrail
// audits Σ T_i == B, T_i ≥ 0, occupancy, and pool accounting on every
// port event of both scenarios.
func ExtFaults(o Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{
		Name:   "fault-injection",
		Labels: bySchemes,
		Columns: fixed3(
			"Jain", "q1-share", "agg-Gbps",
			"fct-avg-ms", "completed",
			"linkdrops-k", "violations",
		),
	}
	schemes := NonECNSchemes()
	static, err := staticGrid(o, schemes, func(scheme Scheme) StaticConfig {
		// Queue 1 is the light tenant the faults pick on, queue 2 the heavy
		// competitor.
		cfg := testbedStatic(scheme, equalWeights(4), twoVsSixteen(), dur, o.Seed)
		cfg.SampleEvery = 100 * units.Millisecond
		cfg.Guard = true
		// host0 carries queue 1's flows; host2 is the receiver, so tor:2 is
		// the measured bottleneck egress.
		cfg.Faults = []faults.Spec{
			{Kind: faults.KindLoss, Target: "tor:2", AtS: 0, Rate: 0.001},
			{
				Kind: faults.KindFlap, Target: "host0:nic",
				AtS:     0.3 * dur.Seconds(),
				UntilS:  0.5 * dur.Seconds(),
				PeriodS: 0.2, JitterS: 0.02,
			},
		}
		return cfg
	})
	if err != nil {
		return nil, fmt.Errorf("ext-faults static: %w", err)
	}
	dynamic, err := RunTrials(len(schemes), o.Parallel, func(i int) (*DynamicResult, error) {
		return RunDynamic(extFaultsFabric(o, schemes[i]))
	})
	if err != nil {
		return nil, fmt.Errorf("ext-faults dynamic: %w", err)
	}
	// Measure the static half after the flap window: did the flapped tenant
	// recover its fair share, or did the heavy queue keep the buffer it
	// grabbed?
	warm, end := units.Time(dur).Add(-dur.Scale(0.4)), units.Time(dur)
	for i, st := range static {
		dy := dynamic[i]
		out.Rows = append(out.Rows, Row{Labels: []string{string(schemes[i])}, Values: []float64{
			st.JainOver([]int{1, 2}, warm, end), st.ShareOf(1, warm, end), float64(st.AvgAggregate(warm, end)) / 1e9,
			float64(dy.FCT.Avg(metrics.AllFlows)) / float64(units.Millisecond),
			float64(dy.Completed) / float64(dy.Generated),
			float64(st.LinkLost+st.LinkCorrupted+dy.LinkLost+dy.LinkCorrupted) / 1000,
			float64(st.ViolationTotal + dy.ViolationTotal),
		}})
	}
	return out, nil
}

// extFaultsFabric is scenario 2's cell for one scheme.
func extFaultsFabric(o Options, scheme Scheme) DynamicConfig {
	return DynamicConfig{
		Scheme:       scheme,
		Params:       SchemeParams{Weights: equalWeights(4)},
		Topo:         TopoLeafSpine,
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		Rate:         10 * units.Gbps,
		Delay:        10 * units.Microsecond,
		Buffer:       192 * units.KB,
		Queues:       4,
		MTU:          1500,
		Load:         0.5,
		Flows:        pick(o, 200, 1000, 4000),
		Workloads:    []*workload.CDF{workload.WebSearch()},
		MinRTO:       5 * units.Millisecond,
		Seed:         o.Seed,
		MaxRuntime:   pick(o, 30*units.Second, 60*units.Second, 120*units.Second),

		Guard:          true,
		FailureAware:   true,
		DetectionDelay: 500 * units.Microsecond,
		// spine0 (whole switch, via its incident-link group) flaps during
		// the arrival burst, and one leaf uplink runs lossy optics.
		Faults: []faults.Spec{
			{
				Kind: faults.KindFlap, Target: "spine0",
				AtS: 0.002, UntilS: 0.05, PeriodS: 0.01, JitterS: 0.001,
			},
			{Kind: faults.KindLoss, Target: "leaf0:spine1", AtS: 0, Rate: 0.005},
		},
	}
}
