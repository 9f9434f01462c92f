package experiment

import (
	"fmt"

	"dynaq/internal/core"
	"dynaq/internal/metrics"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// FCTStats is one (scheme, load) cell of an FCT figure.
type FCTStats struct {
	Scheme     Scheme
	Load       float64
	AvgOverall units.Duration
	AvgSmall   units.Duration
	AvgLarge   units.Duration
	P99Small   units.Duration
	Completed  int
	Generated  int
}

// FCTResult reproduces an FCT comparison figure: a matrix of stats over
// (scheme, load), with DynaQ always first so normalization is against it
// (§V: "the FCT results are normalized by the values of DynaQ").
type FCTResult struct {
	Figure string
	Cells  []FCTStats
}

// fctCell identifies one independent simulation of an FCT figure grid.
type fctCell struct {
	load   float64
	scheme Scheme
}

// stats summarizes the cell's completion times.
func (c fctCell) stats(fct *metrics.FCTCollector, completed, generated int) FCTStats {
	return FCTStats{
		Scheme:     c.scheme,
		Load:       c.load,
		AvgOverall: fct.Avg(metrics.AllFlows),
		AvgSmall:   fct.Avg(metrics.SmallFlows),
		AvgLarge:   fct.Avg(metrics.LargeFlows),
		P99Small:   fct.Percentile(metrics.SmallFlows, 0.99),
		Completed:  completed,
		Generated:  generated,
	}
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
// on a shared base configuration. The (load, scheme) cells are independent
// simulations, so they run on `workers` goroutines (0 = GOMAXPROCS) and are
// merged in grid order — the Cells slice is identical at any worker count.
func fctRun(figure string, schemes []Scheme, loads []float64, base DynamicConfig, workers int) (*FCTResult, error) {
	cells := fctCells(loads, schemes)
	if base.singleStream() {
		workers = 1
	}
	stats, err := RunTrials(len(cells), workers, func(i int) (FCTStats, error) {
		cfg := base
		cfg.Scheme = cells[i].scheme
		cfg.Load = cells[i].load
		cfg.DCTCP = cells[i].scheme.IsECNBased()
		res, err := RunDynamic(cfg)
		if err != nil {
			return FCTStats{}, err
		}
		return cells[i].stats(res.FCT, res.Completed, res.Generated), nil
	})
	if err != nil {
		return nil, err
	}
	return &FCTResult{Figure: figure, Cells: stats}, nil
}

// Cell returns the stats for (scheme, load), or nil.
func (r *FCTResult) Cell(s Scheme, load float64) *FCTStats {
	for i := range r.Cells {
		//dynaqlint:allow float-eq Load values are copied experiment literals (0.5, 0.8, ...), never arithmetic results, so exact lookup is intended
		if r.Cells[i].Scheme == s && r.Cells[i].Load == load {
			return &r.Cells[i]
		}
	}
	return nil
}

// Loads returns the distinct loads in run order.
func (r *FCTResult) Loads() []float64 {
	return distinct(r.Cells, func(c FCTStats) float64 { return c.Load })
}

// Schemes returns the distinct schemes in run order.
func (r *FCTResult) Schemes() []Scheme {
	return distinct(r.Cells, func(c FCTStats) Scheme { return c.Scheme })
}

// distinct lists key(c) over cells, each value once, in first-seen order.
func distinct[K comparable](cells []FCTStats, key func(FCTStats) K) []K {
	var ks []K
	seen := map[K]bool{}
	for _, c := range cells {
		if k := key(c); !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	return ks
}

// Table renders the figure with FCTs normalized by DynaQ, as the paper
// plots them (a ratio > 1 means the scheme is slower than DynaQ).
func (r *FCTResult) Table() string {
	var t table
	t.add("load", "scheme", "avg overall", "avg small", "avg large", "p99 small", "flows")
	norm := func(v, base units.Duration) string {
		if base == 0 {
			return "-"
		}
		return formatRatio(float64(v) / float64(base))
	}
	for _, load := range r.Loads() {
		base := r.Cell(DynaQ, load)
		for _, s := range r.Schemes() {
			c := r.Cell(s, load)
			if c == nil {
				continue
			}
			if s == DynaQ {
				t.addf("%.0f%%\t%s\t%s\t%s\t%s\t%s\t%d/%d", load*100, s,
					formatMillis(c.AvgOverall), formatMillis(c.AvgSmall),
					formatMillis(c.AvgLarge), formatMillis(c.P99Small),
					c.Completed, c.Generated)
				continue
			}
			t.addf("%.0f%%\t%s\t%s\t%s\t%s\t%s\t%d/%d", load*100, s,
				norm(c.AvgOverall, base.AvgOverall), norm(c.AvgSmall, base.AvgSmall),
				norm(c.AvgLarge, base.AvgLarge), norm(c.P99Small, base.P99Small),
				c.Completed, c.Generated)
		}
	}
	return t.String()
}

func formatRatio(x float64) string {
	return fmt.Sprintf("%.2fx", x)
}

// formatMillis renders a duration as fractional milliseconds, the unit the
// paper's FCT plots use.
func formatMillis(d units.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(units.Millisecond))
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
func Fig8(o Options) (*FCTResult, error) {
	return fctRun("fig8", NonECNSchemes(), fctLoads(o), testbedFCT(o, SchemeParams{Weights: equalWeights(5)}), o.Parallel)
}

// Fig9 compares DynaQ (drop-based, plain TCP) with the ECN-based schemes
// (TCN, PMSB, Per-Queue ECN) running DCTCP, on the same rack as Fig8.
func Fig9(o Options) (*FCTResult, error) {
	// Thresholds tuned like the testbed: DCTCP K = 30KB, TCN target = 240µs
	// (§V-A "the best values experimentally found").
	tuned := SchemeParams{Weights: equalWeights(5), PerQueueK: 30 * units.KB, TCNTarget: 240 * units.Microsecond}
	return fctRun("fig9", ECNSchemes(), fctLoads(o), testbedFCT(o, tuned), o.Parallel)
}

// Fig13 runs the large-scale leaf-spine FCT simulation: SPQ(1)+DRR(7), the
// four workloads striped over the seven services, ECMP, 10Gbps fabric.
func Fig13(o Options) (*FCTResult, error) {
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
// paper but a headline claim: ≤7 cycles for 8 queues, 0.88% of Trident 3).
func Cycles() *CyclesResult {
	res := &CyclesResult{TridentOverhead: core.CycleOverhead(8, 800)}
	for _, m := range []int{1, 2, 4, 8, 16} {
		res.QueueCounts = append(res.QueueCounts, m)
		res.Cycles = append(res.Cycles, core.CycleCost(m))
	}
	return res
}
