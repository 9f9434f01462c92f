package experiment

import (
	"fmt"

	"dynaq/internal/metrics"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// Testbed constants (§V-A): a 1GbE rack with a Broadcom-56538-like 85KB
// port buffer and ~500µs base RTT.
const (
	testbedRate   = units.Gbps
	testbedDelay  = 125 * units.Microsecond // base RTT 4·125µs = 500µs
	testbedBuffer = 85 * units.KB
	testbedMinRTO = 10 * units.Millisecond
	testbedMTU    = units.ByteSize(1500)
)

func equalWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// testbedStatic fills the shared testbed parameters of the static-flow
// experiments.
func testbedStatic(scheme Scheme, weights []int64, specs []QueueSpec, dur units.Duration, seed int64) StaticConfig {
	return StaticConfig{
		Scheme:      scheme,
		Sched:       SchedDRR,
		Params:      SchemeParams{Weights: weights},
		Rate:        testbedRate,
		Delay:       testbedDelay,
		Buffer:      testbedBuffer,
		Queues:      len(weights),
		MTU:         testbedMTU,
		Specs:       specs,
		Duration:    dur,
		SampleEvery: 500 * units.Millisecond,
		MinRTO:      testbedMinRTO,
		Seed:        seed,
	}
}

// twoVsSixteen is the paper's standing isolation test: queue 1 carries 2
// flows, queue 2 carries 16, one sender host each.
func twoVsSixteen() []QueueSpec {
	return []QueueSpec{
		{Class: 1, Flows: 2, Hosts: 1},
		{Class: 2, Flows: 16, Hosts: 1},
	}
}

// staticGrid runs one static cell per scheme on o.Parallel workers and
// returns the results in scheme order, identical at any worker count. A
// figure is this grid plus what it reads off each result. One worker when a
// cell carries a single-stream sink, as in fctRun.
func staticGrid(o Options, schemes []Scheme, cell func(Scheme) StaticConfig) ([]*StaticResult, error) {
	workers := o.Parallel
	cfgs := make([]StaticConfig, len(schemes))
	for i, scheme := range schemes {
		cfgs[i] = cell(scheme)
		if cfgs[i].singleStream() {
			workers = 1
		}
	}
	return RunTrials(len(cfgs), workers, func(i int) (*StaticResult, error) { return RunStatic(cfgs[i]) })
}

// shareJainAgg is the row most two-queue comparisons report over the last
// four fifths of a run of dur: queue 1's share, the Jain index over queues 1
// and 2, and the aggregate in Gbps.
func shareJainAgg(res *StaticResult, dur units.Duration) []float64 {
	warm, end := units.Time(dur/5), units.Time(dur)
	return []float64{
		res.ShareOf(1, warm, end),
		res.JainOver([]int{1, 2}, warm, end),
		float64(res.AvgAggregate(warm, end)) / 1e9,
	}
}

// Fig1Result reproduces Figure 1: fair sharing violated by unfair buffer
// occupancy under the best-effort scheme.
type Fig1Result struct {
	// Rate and Share are per active queue (queue 1 and queue 2).
	Rate  [2]units.Rate
	Share [2]float64
	// AvgOccupancy is the mean buffer occupancy per queue over the trace.
	AvgOccupancy [2]units.ByteSize
}

// Fig1 runs the motivation experiment: 4 equal DRR queues, queue 1 fed by
// 8 flows from one sender, queue 2 by 24 flows from three senders, under
// BestEffort. The paper's point: queue 2's arrival pressure monopolizes
// the buffer, so equal DRR weights do not yield equal throughput.
func Fig1(o Options) (*Fig1Result, error) {
	dur := pick(o, 3*units.Second, 15*units.Second, 60*units.Second)
	specs := []QueueSpec{
		{Class: 1, Flows: 8, Hosts: 1},
		{Class: 2, Flows: 24, Hosts: 3},
	}
	cells, err := staticGrid(o, []Scheme{BestEffort}, func(scheme Scheme) StaticConfig {
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		cfg.TraceStride = 8
		return cfg
	})
	if err != nil {
		return nil, err
	}
	res, out := cells[0], &Fig1Result{}
	warm, end := units.Time(dur/10), units.Time(dur)
	var occ [2]float64
	for _, s := range res.QueueTrace {
		occ[0] += float64(s.PerQueue[1])
		occ[1] += float64(s.PerQueue[2])
	}
	for i := range out.Rate {
		out.Rate[i] = res.AvgThroughput(i+1, warm, end)
		out.Share[i] = res.ShareOf(i+1, warm, end)
		if n := len(res.QueueTrace); n > 0 {
			out.AvgOccupancy[i] = units.ByteSize(occ[i] / float64(n))
		}
	}
	return out, nil
}

// Table renders the figure as text.
func (r *Fig1Result) Table() string {
	var t table
	t.add("queue", "throughput", "share", "avg occupancy")
	for i := 0; i < 2; i++ {
		t.addf("queue %d\t%v\t%.2f\t%v", i+1, r.Rate[i], r.Share[i], r.AvgOccupancy[i])
	}
	return t.String()
}

// ConvergenceResult reproduces Figures 3 and 4: throughput convergence and
// queue evolution of two active DRR queues (2 vs 16 flows) under each
// scheme.
type ConvergenceResult struct {
	Schemes []Scheme
	// Share1 is queue 1's long-run throughput share per scheme (ideal
	// 0.5); JainIdx the mean Jain index over the two active queues.
	Share1  []float64
	JainIdx []float64
	// Traces carries 1K-sample queue evolutions per scheme (Fig. 4).
	Traces [][]metrics.QueueSample
	// Series carries the full throughput series per scheme (Fig. 3).
	Series [][]metrics.ThroughputSample
}

// Fig3 runs the convergence experiment for BestEffort, PQL and DynaQ; Fig. 4
// is the queue-evolution view (Traces) of the same runs.
func Fig3(o Options) (*ConvergenceResult, error) {
	dur := pick(o, 3*units.Second, 10*units.Second, 10*units.Second)
	out := &ConvergenceResult{Schemes: NonECNSchemes()}
	cells, err := staticGrid(o, out.Schemes, func(scheme Scheme) StaticConfig {
		cfg := testbedStatic(scheme, equalWeights(4), twoVsSixteen(), dur, o.Seed)
		cfg.TraceStride = 4
		return cfg
	})
	if err != nil {
		return nil, err
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	for _, res := range cells {
		out.Share1 = append(out.Share1, res.ShareOf(1, warm, end))
		out.JainIdx = append(out.JainIdx, res.JainOver([]int{1, 2}, warm, end))
		out.Series = append(out.Series, res.Samples)
		// Fig. 4's "1K sequential samples at random time": take them from
		// the middle of the run.
		trace := res.QueueTrace
		if len(trace) > 1000 {
			start := len(trace) / 2
			trace = trace[start : start+1000]
		}
		out.Traces = append(out.Traces, trace)
	}
	return out, nil
}

// Table renders the convergence summary.
func (r *ConvergenceResult) Table() string {
	var t table
	t.add("scheme", "queue1 share (ideal 0.5)", "Jain index", "mean qlen q1", "mean qlen q2")
	for i, s := range r.Schemes {
		var q1, q2 float64
		for _, smp := range r.Traces[i] {
			q1 += float64(smp.PerQueue[1])
			q2 += float64(smp.PerQueue[2])
		}
		if n := len(r.Traces[i]); n > 0 {
			q1 /= float64(n)
			q2 /= float64(n)
		}
		t.addf("%s\t%.3f\t%.3f\t%v\t%v", s, r.Share1[i], r.JainIdx[i],
			units.ByteSize(q1), units.ByteSize(q2))
	}
	return t.String()
}

// PhasedResult reproduces Figures 5 and 7: bandwidth sharing among 4 DRR
// queues as queues go inactive over time.
type PhasedResult struct {
	Schemes []Scheme
	// Phase boundaries (queues stop at each boundary).
	Boundaries []units.Time
	// JainPerPhase[i][p] is scheme i's mean Jain index over the queues
	// active in phase p; AggPerPhase the mean aggregate throughput.
	JainPerPhase [][]float64
	AggPerPhase  [][]units.Rate
	Series       [][]metrics.ThroughputSample
}

// phasedRun drives the Fig. 5/7 scenario: queue i carries 2^i flows; from
// mid-run the highest queue stops every interval until only queue 1
// remains.
func phasedRun(o Options, schemes []Scheme, ctrlFor func(class int) func() transport.Controller) (*PhasedResult, error) {
	// Paper timeline: stops at 10, 15, 20, 25 s; scale the whole timeline.
	unit := pick(o, units.Second, 5*units.Second, 5*units.Second)
	dur := 5 * unit
	out := &PhasedResult{
		Schemes:    schemes,
		Boundaries: []units.Time{0, units.Time(2 * unit), units.Time(3 * unit), units.Time(4 * unit), units.Time(5 * unit)},
	}
	// Paper's queue q (1-based) is service class q-1. Queue q carries 2^q
	// flows; queue 4 stops first (at 2·unit), then 3, then 2; queue 1 runs
	// to the end (5·unit).
	var specs []QueueSpec
	for q := 1; q <= 4; q++ {
		var ctrl func() transport.Controller
		if ctrlFor != nil {
			ctrl = ctrlFor(q)
		}
		specs = append(specs, QueueSpec{
			Class:  q - 1,
			Flows:  1 << q, // 2, 4, 8, 16
			Hosts:  1,
			StopAt: units.Duration(6-q) * unit,
			Ctrl:   ctrl,
		})
	}
	cells, err := staticGrid(o, schemes, func(scheme Scheme) StaticConfig {
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		cfg.SampleEvery = pick(o, 100*units.Millisecond, 250*units.Millisecond, 500*units.Millisecond)
		return cfg
	})
	if err != nil {
		return nil, err
	}
	activeIn := [][]int{{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}}
	for _, res := range cells {
		var jain []float64
		var agg []units.Rate
		for p, active := range activeIn {
			// Skip the convergence transient right after a stop.
			from, to := out.Boundaries[p].Add(unit/5), out.Boundaries[p+1]
			jain = append(jain, res.JainOver(active, from, to))
			agg = append(agg, res.AvgAggregate(from, to))
		}
		out.JainPerPhase = append(out.JainPerPhase, jain)
		out.AggPerPhase = append(out.AggPerPhase, agg)
		out.Series = append(out.Series, res.Samples)
	}
	return out, nil
}

// Fig5 runs the equal-weight bandwidth-sharing experiment with queue
// departures for BestEffort, PQL and DynaQ.
func Fig5(o Options) (*PhasedResult, error) {
	return phasedRun(o, NonECNSchemes(), nil)
}

// Fig7 repeats Fig5 under DynaQ with CUBIC senders on queues 3 and 4 — the
// protocol-independence demonstration.
func Fig7(o Options) (*PhasedResult, error) {
	return phasedRun(o, []Scheme{DynaQ}, func(class int) func() transport.Controller {
		if class >= 3 {
			return func() transport.Controller { return transport.NewCubic() }
		}
		return nil
	})
}

// Table renders per-phase fairness and aggregate throughput.
func (r *PhasedResult) Table() string {
	var t table
	t.add("scheme", "phase(active)", "Jain", "aggregate")
	names := []string{"4 queues", "3 queues", "2 queues", "1 queue"}
	for i, s := range r.Schemes {
		for p := range names {
			t.addf("%s\t%s\t%.3f\t%v", s, names[p], r.JainPerPhase[i][p], r.AggPerPhase[i][p])
		}
	}
	return t.String()
}

// Fig6Result reproduces Figure 6: throughput shares under DRR weights
// 4:3:2:1.
type Fig6Result struct {
	Schemes []Scheme
	// Shares[i][q] is queue q+1's mean throughput share under scheme i;
	// ideal 0.4/0.3/0.2/0.1.
	Shares [][4]float64
	// WJain is the weighted Jain index (1 = perfectly weighted-fair).
	WJain []float64
}

// Fig6 runs the weighted sharing experiment for BestEffort, PQL and DynaQ.
func Fig6(o Options) (*Fig6Result, error) {
	dur := pick(o, 3*units.Second, 10*units.Second, 10*units.Second)
	weights := []int64{4, 3, 2, 1}
	var specs []QueueSpec
	for q := 1; q <= 4; q++ {
		specs = append(specs, QueueSpec{Class: q - 1, Flows: 1 << q, Hosts: 1})
	}
	out := &Fig6Result{Schemes: NonECNSchemes()}
	cells, err := staticGrid(o, out.Schemes, func(scheme Scheme) StaticConfig {
		return testbedStatic(scheme, weights, specs, dur, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	for _, res := range cells {
		var shares [4]float64
		xs := make([]float64, 4)
		for q := range xs {
			shares[q] = res.ShareOf(q, warm, end)
			xs[q] = float64(res.AvgThroughput(q, warm, end))
		}
		out.Shares = append(out.Shares, shares)
		out.WJain = append(out.WJain, metrics.WeightedJain(xs, weights))
	}
	return out, nil
}

// Table renders shares against the 0.4/0.3/0.2/0.1 ideal.
func (r *Fig6Result) Table() string {
	var t table
	t.add("scheme", "q1 (0.4)", "q2 (0.3)", "q3 (0.2)", "q4 (0.1)", "weighted Jain")
	for i, s := range r.Schemes {
		t.addf("%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f", s,
			r.Shares[i][0], r.Shares[i][1], r.Shares[i][2], r.Shares[i][3], r.WJain[i])
	}
	return t.String()
}

// HighSpeedResult reproduces Figures 10-12: Jain fairness over active
// queues plus aggregate throughput on 10/100 Gbps links as queues stop one
// by one.
type HighSpeedResult struct {
	Schemes []Scheme
	// MinJain is the worst per-sample Jain index over the run (the
	// paper's plots dip at stop instants); MeanJain the average.
	MinJain, MeanJain []float64
	// MeanAgg and MinAgg summarize aggregate throughput over the run.
	MeanAgg, MinAgg []units.Rate
	Series          [][]metrics.ThroughputSample
	Rate            units.Rate
}

// highSpeedRun drives the Fig. 10-12 scenario on a star with 8 WRR queues:
// queue i has senders[i] single-flow senders; queues 2..8 stop every 50ms
// from 200ms.
func highSpeedRun(o Options, rate units.Rate, buf units.ByteSize, rtt units.Duration,
	mtu units.ByteSize, senders [8]int) (*HighSpeedResult, error) {
	var specs []QueueSpec
	for q := 1; q <= 8; q++ {
		stop := units.Duration(0)
		if q >= 2 {
			stop = 200*units.Millisecond + units.Duration(q-2)*50*units.Millisecond
		}
		specs = append(specs, QueueSpec{
			Class:  q - 1,
			Flows:  senders[q-1],
			Hosts:  senders[q-1], // one flow per sender host
			StopAt: stop,
		})
	}
	out := &HighSpeedResult{Rate: rate, Schemes: NonECNSchemes()}
	cells, err := staticGrid(o, out.Schemes, func(scheme Scheme) StaticConfig {
		return StaticConfig{
			Scheme:      scheme,
			Sched:       SchedWRR,
			Params:      SchemeParams{Weights: equalWeights(8)},
			Rate:        rate,
			Delay:       rtt / 4,
			Buffer:      buf,
			Queues:      8,
			MTU:         mtu,
			Specs:       specs,
			Duration:    600 * units.Millisecond,
			SampleEvery: 10 * units.Millisecond,
			MinRTO:      5 * units.Millisecond,
			Seed:        o.Seed,
		}
	})
	if err != nil {
		return nil, err
	}
	for _, res := range cells {
		minJ, sumJ, nJ := 1.0, 0.0, 0
		var minA units.Rate = units.Rate(1) << 62
		var sumA int64
		for _, smp := range res.Samples {
			// Skip the slow-start warmup.
			if smp.At < units.Time(50*units.Millisecond) {
				continue
			}
			// Queues active at this sample time: not yet stopped, or stopped
			// within the last 20ms (the sample right at a stop).
			var xs []float64
			for q, spec := range specs {
				if spec.StopAt == 0 || smp.At <= units.Time(spec.StopAt).Add(20*units.Millisecond) {
					xs = append(xs, float64(smp.PerQueue[q]))
				}
			}
			j := metrics.Jain(xs)
			minJ = min(minJ, j)
			sumJ += j
			nJ++
			minA = min(minA, smp.Aggregate)
			sumA += int64(smp.Aggregate)
		}
		out.MinJain = append(out.MinJain, minJ)
		out.MeanJain = append(out.MeanJain, sumJ/float64(nJ))
		out.MinAgg = append(out.MinAgg, minA)
		out.MeanAgg = append(out.MeanAgg, units.Rate(sumA/int64(nJ)))
		out.Series = append(out.Series, res.Samples)
	}
	return out, nil
}

// highSpeedSenders is the Fig. 10/11 sender table: 2·i single-flow senders
// for queue i, halved at quick scale.
func highSpeedSenders(o Options) (senders [8]int) {
	for i := range senders {
		senders[i] = pick(o, 1, 2, 2) * (i + 1)
	}
	return senders
}

// Fig10 runs the 10Gbps bandwidth-sharing simulation (2·i senders for
// queue i, Broadcom Trident+-like 192KB port buffer, 84µs RTT).
func Fig10(o Options) (*HighSpeedResult, error) {
	return highSpeedRun(o, 10*units.Gbps, 192*units.KB, 84*units.Microsecond, 1500, highSpeedSenders(o))
}

// Fig11 repeats Fig10 at 100Gbps with jumbo frames and a Trident 3-like
// 1MB buffer (40µs RTT).
func Fig11(o Options) (*HighSpeedResult, error) {
	return highSpeedRun(o, 100*units.Gbps, units.MB, 40*units.Microsecond, 9000, highSpeedSenders(o))
}

// Fig12 is the extreme traffic-dynamics run: queue i has 2^(3+i)
// single-flow senders (16 up to 2048 at full scale).
func Fig12(o Options) (*HighSpeedResult, error) {
	shift := pick(o, 1, 2, 3)
	var senders [8]int
	for i := range senders {
		senders[i] = 1 << (shift + i + 1)
	}
	return highSpeedRun(o, 100*units.Gbps, units.MB, 40*units.Microsecond, 9000, senders)
}

// Table renders the high-speed fairness summary.
func (r *HighSpeedResult) Table() string {
	var t table
	t.add("scheme", "mean Jain", "min Jain", "mean aggregate", "min aggregate")
	for i, s := range r.Schemes {
		t.addf("%s\t%.3f\t%.3f\t%v\t%v", s, r.MeanJain[i], r.MinJain[i], r.MeanAgg[i], r.MinAgg[i])
	}
	return t.String()
}

// CyclesResult reproduces the §IV-A hardware cost analysis.
type CyclesResult struct {
	QueueCounts []int
	Cycles      []int
	// TridentOverhead is the fraction of a Trident 3's ≥800-cycle
	// per-packet budget for 8 queues.
	TridentOverhead float64
}

// Table renders the cycle budget.
func (r *CyclesResult) Table() string {
	var t table
	t.add("queues", "worst-case cycles")
	for i, m := range r.QueueCounts {
		t.addf("%d\t%d", m, r.Cycles[i])
	}
	return t.String() + fmt.Sprintf("Trident 3 overhead (8 queues / 800 cycles): %.2f%%\n",
		100*r.TridentOverhead)
}
