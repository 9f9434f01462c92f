package figures

import (
	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
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
func ExtFaults(o experiment.Options) (*Figure, error) {
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
	schemes := experiment.NonECNSchemes()
	cells := make([]scenario.Document, 2*len(schemes))
	for i, scheme := range schemes {
		// Queue 1 is the light tenant the faults pick on, queue 2 the heavy
		// competitor.
		rack := testbed(o, scheme, 4, dur, twoVsSixteen()...)
		rack.SampleMs, rack.Guard = 100, true
		// host0 carries queue 1's flows; host2 is the receiver, so tor:2 is
		// the measured bottleneck egress.
		rack.Faults = []faults.Spec{
			{Kind: faults.KindLoss, Target: "tor:2", AtS: 0, Rate: 0.001},
			{
				Kind: faults.KindFlap, Target: "host0:nic",
				AtS:     0.3 * dur.Seconds(),
				UntilS:  0.5 * dur.Seconds(),
				PeriodS: 0.2, JitterS: 0.02,
			},
		}
		cells[i] = rack
		cells[len(schemes)+i] = scenario.Document{
			Kind:         "fct",
			Scheme:       string(scheme),
			Topo:         string(fabric.LeafSpine),
			Leaves:       2,
			Spines:       2,
			HostsPerLeaf: 2,
			RateGbps:     10,
			BufferB:      192000,
			Queues:       4,
			RTTUs:        40,
			Load:         0.5,
			Flows:        pick(o, 200, 1000, 4000),
			Workloads:    []string{"websearch"},
			MinRTOMs:     5,
			Seed:         o.Seed,
			MaxRuntimeS:  pick(o, 30.0, 60.0, 120.0),
			Guard:        true,
			FailureAware: true,
			DetectMs:     0.5,
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
	results, err := out.run(o, cells)
	if err != nil {
		return nil, err
	}
	// Measure the static half after the flap window: did the flapped tenant
	// recover its fair share, or did the heavy queue keep the buffer it
	// grabbed?
	warm, end := units.Time(dur).Add(-dur.Scale(0.4)), units.Time(dur)
	for i, scheme := range schemes {
		st, dy := results[i].Static, results[len(schemes)+i].Dynamic
		out.Rows = append(out.Rows, Row{Labels: []string{string(scheme)}, Values: []float64{
			st.JainOver([]int{1, 2}, warm, end), st.ShareOf(1, warm, end), float64(st.AvgAggregate(warm, end)) / 1e9,
			float64(dy.FCT.Avg(metrics.AllFlows)) / float64(units.Millisecond),
			float64(dy.Completed) / float64(dy.Generated),
			float64(st.LinkLost+st.LinkCorrupted+dy.LinkLost+dy.LinkCorrupted) / 1000,
			float64(st.ViolationTotal + dy.ViolationTotal),
		}})
	}
	return out, nil
}
