package experiment

import (
	"fmt"
	"math"

	"dynaq/internal/metrics"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

func newDCTCPCtrl() transport.Controller { return transport.NewDCTCP() }

// AblationResult compares DynaQ against one of its design-choice variants
// on a scenario that exposes the difference.
type AblationResult struct {
	Name    string
	Schemes []Scheme
	// Metric rows, one per scheme; Labels names the columns.
	Labels []string
	Rows   [][]float64
}

// Table renders the comparison.
func (r *AblationResult) Table() string {
	var t table
	header := append([]string{"scheme"}, r.Labels...)
	t.add(header...)
	for i, s := range r.Schemes {
		cells := []string{string(s)}
		for _, v := range r.Rows[i] {
			cells = append(cells, trim3(v))
		}
		t.add(cells...)
	}
	return t.String()
}

func trim3(v float64) string {
	return fmt.Sprintf("%.3f", v)
}

// staticRows is the comparison as grid × extractor: one static cell per
// scheme of r, and the row each result yields, in scheme order.
func (r *AblationResult) staticRows(o Options, cell func(Scheme) StaticConfig, row func(*StaticResult) []float64) (*AblationResult, error) {
	cells, err := staticGrid(o, r.Schemes, cell)
	if err != nil {
		return nil, err
	}
	for _, res := range cells {
		r.Rows = append(r.Rows, row(res))
	}
	return r, nil
}

// AblationVictim reproduces the §III-B victim-selection argument: under
// DRR weights 4:3:2:1 the naive largest-threshold rule keeps victimizing
// the heavy queue (or dropping when it is protected), hurting weighted
// fairness and throughput; the paper's largest-extra rule does not.
func AblationVictim(o Options) (*AblationResult, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	// §III-B's own example: weights 1:2:3. The heavy queue (weight 3)
	// stops mid-run; while it is idle the naive rule keeps stripping its
	// threshold (it has the largest T), so on paper-weight terms the
	// heavy queue's budget — and with it the light queues' protection
	// structure — erodes, and overflowing queues drop against it while
	// it is active even when lighter queues hold surplus.
	weights := []int64{1, 2, 3}
	out := &AblationResult{
		Name:    "victim-selection",
		Labels:  []string{"weighted-Jain", "q3-share(0.5)", "agg-Gbps", "drops-k"},
		Schemes: []Scheme{DynaQ, DynaQNaiveVictim},
	}
	specs := []QueueSpec{
		{Class: 0, Flows: 16, Hosts: 1}, // light queue floods
		{Class: 1, Flows: 4, Hosts: 1},
		{Class: 2, Flows: 2, Hosts: 1}, // heavy queue, few flows
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, func(scheme Scheme) StaticConfig {
		return testbedStatic(scheme, weights, specs, dur, o.Seed)
	}, func(res *StaticResult) []float64 {
		xs := make([]float64, 3)
		for q := range xs {
			xs[q] = float64(res.AvgThroughput(q, warm, end))
		}
		return []float64{
			metrics.WeightedJain(xs, weights),
			res.ShareOf(2, warm, end),
			float64(res.AvgAggregate(warm, end)) / 1e9,
			float64(res.Drops) / 1000,
		}
	})
}

// AblationSatisfaction reproduces the Eq. 3 headroom argument: with
// S_i = WBDP_i the thresholds leave no slack above the fair-share pipe, so
// the protected budget of a lightly-loaded queue erodes and its share
// destabilizes; S_i = B·w_i/Σw holds it steady.
func AblationSatisfaction(o Options) (*AblationResult, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &AblationResult{
		Name:    "satisfaction-threshold",
		Labels:  []string{"q1-share(0.5)", "share-stddev", "Jain"},
		Schemes: []Scheme{DynaQ, DynaQWBDP},
	}
	warm, end := units.Time(dur/4), units.Time(dur)
	return out.staticRows(o, func(scheme Scheme) StaticConfig {
		cfg := testbedStatic(scheme, equalWeights(4), twoVsSixteen(), dur, o.Seed)
		cfg.SampleEvery = 100 * units.Millisecond
		return cfg
	}, func(res *StaticResult) []float64 {
		// Per-sample share of queue 1 and its standard deviation: the
		// instability metric.
		var shares []float64
		for _, smp := range res.window(warm, end) {
			if tot := smp.PerQueue[1] + smp.PerQueue[2]; tot != 0 {
				shares = append(shares, float64(smp.PerQueue[1])/float64(tot))
			}
		}
		mean, sd := meanStd(shares)
		return []float64{mean, sd, res.JainOver([]int{1, 2}, warm, end)}
	})
}

// AblationDequeueDrop reproduces the §II-C TCN-drop argument: dropping the
// just-dequeued packet wastes its transmission slot, idling the link, on
// top of buffering a packet that is then thrown away. Two backlogged
// queues drive the port; the dropping variant must lose goodput.
func AblationDequeueDrop(o Options) (*AblationResult, error) {
	dur := pick(o, 3*units.Second, 10*units.Second, 10*units.Second)
	out := &AblationResult{
		Name:    "tcn-dequeue-drop",
		Labels:  []string{"agg-Gbps", "Jain"},
		Schemes: []Scheme{DynaQ, TCN, TCNDrop},
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, func(scheme Scheme) StaticConfig {
		specs := []QueueSpec{
			{Class: 1, Flows: 8, Hosts: 1},
			{Class: 2, Flows: 8, Hosts: 1},
		}
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		// TCN needs DCTCP to react to its marks; TCNDrop and DynaQ run
		// plain TCP (drops are protocol-independent signals).
		if scheme == TCN {
			for i := range cfg.Specs {
				cfg.Specs[i].Ctrl = newDCTCPCtrl
				cfg.Specs[i].ECN = true
			}
		}
		return cfg
	}, func(res *StaticResult) []float64 {
		return []float64{float64(res.AvgAggregate(warm, end)) / 1e9, res.JainOver([]int{1, 2}, warm, end)}
	})
}

func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)))
}
