package experiment

import (
	"fmt"
	"strconv"

	"dynaq/internal/core"
	"dynaq/internal/metrics"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// fctCell identifies one independent simulation of an FCT figure grid.
type fctCell struct {
	load   float64
	scheme Scheme
}

// fctCells lists a figure grid load-major: every scheme at the first load,
// then at the next.
func fctCells(loads []float64, schemes []Scheme) []fctCell {
	cells := make([]fctCell, 0, len(loads)*len(schemes))
	for _, load := range loads {
		for _, scheme := range schemes {
			cells = append(cells, fctCell{load: load, scheme: scheme})
		}
	}
	return cells
}

// fctRun executes one FCT figure: the given schemes across the given loads
// on a shared base configuration. A row per (load, scheme) cell gives the
// average FCT overall and of small and large flows, the small flows' p99,
// and the flows completed out of those generated. The FCTs print normalized
// by DynaQ's at the same load, as the paper plots them (a ratio > 1 means
// the scheme is slower than DynaQ), so schemes must include DynaQ. The
// cells are independent simulations, so they run on `workers` goroutines
// (0 = GOMAXPROCS) and are merged in grid order — the rows are identical at
// any worker count.
func fctRun(figure string, schemes []Scheme, loads []float64, base DynamicConfig, workers int) (*Figure, error) {
	cells := fctCells(loads, schemes)
	if base.singleStream() {
		workers = 1
	}
	rows, err := RunTrials(len(cells), workers, func(i int) (Row, error) {
		c := cells[i]
		cfg := base
		cfg.Scheme = c.scheme
		cfg.Load = c.load
		cfg.DCTCP = c.scheme.IsECNBased()
		res, err := RunDynamic(cfg)
		if err != nil {
			return Row{}, err
		}
		return Row{
			Labels: []string{fmt.Sprintf("%.0f%%", c.load*100), string(c.scheme)},
			Values: []float64{
				float64(res.FCT.Avg(metrics.AllFlows)),
				float64(res.FCT.Avg(metrics.SmallFlows)),
				float64(res.FCT.Avg(metrics.LargeFlows)),
				float64(res.FCT.Percentile(metrics.SmallFlows, 0.99)),
				float64(res.Completed), float64(res.Generated),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		Name:   figure,
		Labels: []string{"load", "scheme"},
		Columns: []Column{
			{"avg overall", FCT}, {"avg small", FCT}, {"avg large", FCT}, {"p99 small", FCT},
			{"flows", Count}, {"generated", OutOf},
		},
		Rows: rows,
	}, nil
}

// fctLoads returns the figure's load sweep at the chosen scale.
func fctLoads(o Options) []float64 {
	return pick(o,
		[]float64{0.6},
		[]float64{0.3, 0.5, 0.8},
		[]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
}

// testbedFCT is the testbed rack of the FCT figures: 4 servers answering one
// client, SPQ(1)+DRR(4), PIAS at 100KB, web-search traffic.
func testbedFCT(o Options, params SchemeParams) DynamicConfig {
	return DynamicConfig{
		Engine:    o.Engine,
		Params:    params,
		Topo:      TopoStar,
		Servers:   4,
		Rate:      testbedRate,
		Delay:     testbedDelay,
		Buffer:    testbedBuffer,
		Queues:    5,
		MTU:       testbedMTU,
		Flows:     pick(o, 200, 1500, 10000),
		Workloads: []*workload.CDF{workload.WebSearch()},
		MinRTO:    testbedMinRTO,
		Seed:      o.Seed,
		MaxRuntime: pick(o,
			30*units.Second, 120*units.Second, 600*units.Second),
	}
}

// Fig8 compares DynaQ with the non-ECN schemes (BestEffort, PQL) on the
// testbed rack.
func Fig8(o Options) (*Figure, error) {
	return fctRun("fig8", NonECNSchemes(), fctLoads(o), testbedFCT(o, SchemeParams{Weights: equalWeights(5)}), o.Parallel)
}

// Fig9 compares DynaQ (drop-based, plain TCP) with the ECN-based schemes
// (TCN, PMSB, Per-Queue ECN) running DCTCP, on the same rack as Fig8.
func Fig9(o Options) (*Figure, error) {
	// Thresholds tuned like the testbed: DCTCP K = 30KB, TCN target = 240µs
	// (§V-A "the best values experimentally found").
	tuned := SchemeParams{Weights: equalWeights(5), PerQueueK: 30 * units.KB, TCNTarget: 240 * units.Microsecond}
	return fctRun("fig9", ECNSchemes(), fctLoads(o), testbedFCT(o, tuned), o.Parallel)
}

// Fig13 runs the large-scale leaf-spine FCT simulation: SPQ(1)+DRR(7), the
// four workloads striped over the seven services, ECMP, 10Gbps fabric.
func Fig13(o Options) (*Figure, error) {
	leaves := pick(o, 2, 4, 12)
	spines := pick(o, 2, 4, 12)
	hostsPerLeaf := pick(o, 2, 4, 12)
	base := DynamicConfig{
		Engine:       o.Engine,
		Params:       SchemeParams{Weights: equalWeights(8)},
		Topo:         TopoLeafSpine,
		Leaves:       leaves,
		Spines:       spines,
		HostsPerLeaf: hostsPerLeaf,
		Rate:         10 * units.Gbps,
		Delay:        10650 * units.Nanosecond, // base RTT ≈ 85.2µs over 8 hops
		Buffer:       192 * units.KB,
		Queues:       8,
		MTU:          1500,
		Flows:        pick(o, 200, 1500, 10000),
		Workloads:    workload.All(),
		MinRTO:       5 * units.Millisecond,
		Seed:         o.Seed,
		MaxRuntime: pick(o,
			20*units.Second, 60*units.Second, 300*units.Second),
	}
	return fctRun("fig13", NonECNSchemes(), fctLoads(o), base, o.Parallel)
}

// Cycles reproduces the §IV-A hardware cost analysis (Table-less in the
// paper but a headline claim: ≤7 cycles for 8 queues, 0.88% of Trident 3):
// Algorithm 1's worst-case cycles per queue count, and under it the share of
// a Trident 3's ≥800-cycle per-packet budget that 8 queues take.
func Cycles(Options) (*Figure, error) {
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
