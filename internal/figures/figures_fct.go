package figures

import (
	"fmt"
	"strconv"

	"dynaq/internal/core"
	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
)

// fctRows executes one FCT figure: base with each of the given schemes at
// each of the given loads, load-major. A row per (load, scheme) cell gives
// the average FCT overall and of small and large flows, the small flows'
// p99, and the flows completed out of those generated. The FCTs print
// normalized by DynaQ's at the same load, as the paper plots them (a ratio
// > 1 means the scheme is slower than DynaQ), so schemes must include DynaQ.
// ECN schemes run DCTCP.
func fctRows(o experiment.Options, figure string, schemes []experiment.Scheme, loads []float64, base scenario.Document) (*Figure, error) {
	var cells []scenario.Document
	for _, load := range loads {
		for _, scheme := range schemes {
			cell := base
			cell.Scheme, cell.Load, cell.DCTCP = string(scheme), load, scheme.IsECNBased()
			cells = append(cells, cell)
		}
	}
	out := &Figure{
		Name:   figure,
		Labels: []string{"load", "scheme"},
		Columns: []Column{
			{"avg overall", FCT}, {"avg small", FCT}, {"avg large", FCT}, {"p99 small", FCT},
			{"flows", Count}, {"generated", OutOf},
		},
	}
	results, err := out.run(o, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		d := res.Dynamic
		out.Rows = append(out.Rows, Row{
			Labels: []string{fmt.Sprintf("%.0f%%", cells[i].Load*100), cells[i].Scheme},
			Values: []float64{
				float64(d.FCT.Avg(metrics.AllFlows)),
				float64(d.FCT.Avg(metrics.SmallFlows)),
				float64(d.FCT.Avg(metrics.LargeFlows)),
				float64(d.FCT.Percentile(metrics.SmallFlows, 0.99)),
				float64(d.Completed), float64(d.Generated),
			},
		})
	}
	return out, nil
}

// fctLoads returns the figure's load sweep at the chosen scale.
func fctLoads(o experiment.Options) []float64 {
	return pick(o,
		[]float64{0.6},
		[]float64{0.3, 0.5, 0.8},
		[]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
}

// testbedFCT is the testbed rack of the FCT figures: 4 servers answering one
// client, SPQ(1)+DRR(4), PIAS at 100KB, web-search traffic.
func testbedFCT(o experiment.Options) scenario.Document {
	return scenario.Document{
		Kind:        "fct",
		Engine:      string(o.Engine),
		Topo:        string(fabric.Star),
		Servers:     4,
		RateGbps:    1,
		BufferB:     85000,
		Queues:      5,
		RTTUs:       500,
		Flows:       pick(o, 200, 1500, 10000),
		Workloads:   []string{"websearch"},
		MinRTOMs:    10,
		Seed:        o.Seed,
		MaxRuntimeS: pick(o, 30.0, 120.0, 600.0),
	}
}

// Fig8 compares DynaQ with the non-ECN schemes (BestEffort, PQL) on the
// testbed rack.
func Fig8(o experiment.Options) (*Figure, error) {
	return fctRows(o, "fig8", experiment.NonECNSchemes(), fctLoads(o), testbedFCT(o))
}

// Fig9 compares DynaQ (drop-based, plain TCP) with the ECN-based schemes
// (TCN, PMSB, Per-Queue ECN) running DCTCP, on the same rack as Fig8.
func Fig9(o experiment.Options) (*Figure, error) {
	// Thresholds tuned like the testbed: DCTCP K = 30KB, TCN target = 240µs
	// (§V-A "the best values experimentally found").
	tuned := testbedFCT(o)
	tuned.PerQueueKB, tuned.TCNTargetUs = 30000, 240
	return fctRows(o, "fig9", experiment.ECNSchemes(), fctLoads(o), tuned)
}

// Fig13 runs the large-scale leaf-spine FCT simulation: SPQ(1)+DRR(7), the
// four workloads striped over the seven services, ECMP, 10Gbps fabric.
func Fig13(o experiment.Options) (*Figure, error) {
	size := pick(o, 2, 4, 12)
	return fctRows(o, "fig13", experiment.NonECNSchemes(), fctLoads(o), scenario.Document{
		Kind:         "fct",
		Engine:       string(o.Engine),
		Topo:         string(fabric.LeafSpine),
		Leaves:       size,
		Spines:       size,
		HostsPerLeaf: size,
		RateGbps:     10,
		BufferB:      192000,
		Queues:       8,
		RTTUs:        42.6, // 10.65µs per hop; base RTT ≈ 85.2µs over 8 hops
		Flows:        pick(o, 200, 1500, 10000),
		Workloads:    []string{"websearch", "datamining", "cache", "hadoop"},
		MinRTOMs:     5,
		Seed:         o.Seed,
		MaxRuntimeS:  pick(o, 20.0, 60.0, 300.0),
	})
}

// Cycles reproduces the §IV-A hardware cost analysis (Table-less in the
// paper but a headline claim: ≤7 cycles for 8 queues, 0.88% of Trident 3):
// Algorithm 1's worst-case cycles per queue count, and under it the share of
// a Trident 3's ≥800-cycle per-packet budget that 8 queues take.
func Cycles(experiment.Options) (*Figure, error) {
	out := &Figure{
		Name:    "cycles",
		Labels:  []string{"queues"},
		Columns: []Column{{"worst-case cycles", Count}},
		Note:    &Note{Column{"Trident 3 overhead (8 queues / 800 cycles)", Percent2}, core.CycleOverhead(8, 800)},
	}
	for _, m := range []int{1, 2, 4, 8, 16} {
		out.Rows = append(out.Rows, Row{Labels: []string{strconv.Itoa(m)}, Values: []float64{float64(core.CycleCost(m))}})
	}
	return out, nil
}
