package figures

import (
	"fmt"

	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
)

// testbed is a static cell on the §V-A testbed: a 1GbE rack with a
// Broadcom-56538-like 85KB port buffer, a 500µs base RTT, a 10ms RTO floor
// and DRR over that many equal-weight queues, sampled every 500ms.
func testbed(o experiment.Options, scheme experiment.Scheme, queues int, dur units.Duration, specs ...scenario.Spec) scenario.Document {
	return scenario.Document{
		Kind:      "static",
		Scheme:    string(scheme),
		RateGbps:  1,
		BufferB:   85000,
		Queues:    queues,
		RTTUs:     500,
		MinRTOMs:  10,
		Seed:      o.Seed,
		DurationS: dur.Seconds(),
		Specs:     specs,
	}
}

// twoVsSixteen is the paper's standing isolation test: queue 1 carries 2
// flows, queue 2 carries 16, one sender host each.
func twoVsSixteen() []scenario.Spec {
	return []scenario.Spec{{Class: 1, Flows: 2}, {Class: 2, Flows: 16}}
}

// shareJainAgg is the row most two-queue comparisons report over the last
// four fifths of a run of dur: queue 1's share, the Jain index over queues 1
// and 2, and the aggregate in Gbps.
func shareJainAgg(res *experiment.StaticResult, dur units.Duration) []float64 {
	warm, end := units.Time(dur/5), units.Time(dur)
	return []float64{
		res.ShareOf(1, warm, end),
		res.JainOver([]int{1, 2}, warm, end),
		float64(res.AvgAggregate(warm, end)) / 1e9,
	}
}

// bySchemes is the label column of a figure with one row per scheme.
var bySchemes = []string{"scheme"}

// fixed3 lists value columns that print with three decimals.
func fixed3(names ...string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Unit: Fixed3}
	}
	return cols
}

// staticRows is a figure as cells × reader: one static cell per scheme,
// and the row each result yields, labelled by its scheme, in scheme order.
func (f *Figure) staticRows(o experiment.Options, schemes []experiment.Scheme, cell func(experiment.Scheme) scenario.Document, row func(*experiment.StaticResult) Row) (*Figure, error) {
	cells := make([]scenario.Document, len(schemes))
	for i, scheme := range schemes {
		cells[i] = cell(scheme)
	}
	results, err := f.run(o, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		r := row(res.Static)
		r.Labels = []string{string(schemes[i])}
		f.Rows = append(f.Rows, r)
	}
	return f, nil
}

// Fig1 runs the motivation experiment: 4 equal DRR queues, queue 1 fed by
// 8 flows from one sender, queue 2 by 24 flows from three senders, under
// BestEffort. The paper's point: queue 2's arrival pressure monopolizes
// the buffer, so equal DRR weights do not yield equal throughput. A row per
// active queue gives its throughput, share and mean buffer occupancy.
func Fig1(o experiment.Options) (*Figure, error) {
	dur := pick(o, 3*units.Second, 15*units.Second, 60*units.Second)
	out := &Figure{
		Name:    "fig1",
		Labels:  []string{"queue"},
		Columns: []Column{{"throughput", BitRate}, {"share", Fixed2}, {"avg occupancy", Bytes}},
	}
	cell := testbed(o, experiment.BestEffort, 4, dur, scenario.Spec{Class: 1, Flows: 8}, scenario.Spec{Class: 2, Flows: 24, Hosts: 3})
	cell.TraceStride = 8
	results, err := out.run(o, []scenario.Document{cell})
	if err != nil {
		return nil, err
	}
	res := results[0].Static
	warm, end := units.Time(dur/10), units.Time(dur)
	for q := 1; q <= 2; q++ {
		out.Rows = append(out.Rows, Row{
			Labels: []string{fmt.Sprintf("queue %d", q)},
			Values: []float64{
				float64(res.AvgThroughput(q, warm, end)), res.ShareOf(q, warm, end),
				float64(units.ByteSize(meanQueue(res.QueueTrace, q))),
			},
		})
	}
	return out, nil
}

// meanQueue is queue q's mean length over a trace, 0 over an empty one.
func meanQueue(trace []metrics.QueueSample, q int) float64 {
	var sum float64
	for _, s := range trace {
		sum += float64(s.PerQueue[q])
	}
	if len(trace) == 0 {
		return 0
	}
	return sum / float64(len(trace))
}

// Fig3 runs the convergence experiment of Figures 3 and 4 — two active DRR
// queues, 2 vs 16 flows — for BestEffort, PQL and DynaQ. Each scheme's row
// carries its throughput series (Fig. 3) and a 1K-sample queue trace
// (Fig. 4).
func Fig3(o experiment.Options) (*Figure, error) {
	dur := pick(o, 3*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{
		Name:    "fig3",
		Labels:  bySchemes,
		Columns: append(fixed3("queue1 share (ideal 0.5)", "Jain index"), Column{"mean qlen q1", Bytes}, Column{"mean qlen q2", Bytes}),
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, experiment.NonECNSchemes(), func(scheme experiment.Scheme) scenario.Document {
		cell := testbed(o, scheme, 4, dur, twoVsSixteen()...)
		cell.TraceStride = 4
		return cell
	}, func(res *experiment.StaticResult) Row {
		// Fig. 4's "1K sequential samples at random time": take them from
		// the middle of the run.
		trace := res.QueueTrace
		if len(trace) > 1000 {
			start := len(trace) / 2
			trace = trace[start : start+1000]
		}
		return Row{
			Values: []float64{
				res.ShareOf(1, warm, end), res.JainOver([]int{1, 2}, warm, end),
				float64(units.ByteSize(meanQueue(trace, 1))), float64(units.ByteSize(meanQueue(trace, 2))),
			},
			Series: res.Samples,
			Trace:  trace,
		}
	})
}

// phasedRun drives the Fig. 5/7 scenario: queue i carries 2^i flows, under
// the congestion controller ctrls[i-1]; from mid-run the highest queue stops
// every interval until only queue 1 remains. A row per (scheme, phase) gives
// the mean Jain index over the queues active in the phase and the mean
// aggregate throughput; a scheme's first row carries its throughput series.
func phasedRun(o experiment.Options, name string, schemes []experiment.Scheme, ctrls [4]string) (*Figure, error) {
	// Paper timeline: stops at 10, 15, 20, 25 s; scale the whole timeline.
	unit := pick(o, units.Second, 5*units.Second, 5*units.Second)
	// Phase boundaries: queues stop at each.
	boundaries := []units.Time{0, units.Time(2 * unit), units.Time(3 * unit), units.Time(4 * unit), units.Time(5 * unit)}
	// Paper's queue q (1-based) is service class q-1. Queue q carries 2^q
	// flows; queue 4 stops first (at 2·unit), then 3, then 2; queue 1 runs
	// to the end (5·unit).
	var specs []scenario.Spec
	for q := 1; q <= 4; q++ {
		specs = append(specs, scenario.Spec{
			Class: q - 1,
			Flows: 1 << q, // 2, 4, 8, 16
			StopS: (units.Duration(6-q) * unit).Seconds(),
			Ctrl:  ctrls[q-1],
		})
	}
	out := &Figure{
		Name:    name,
		Labels:  []string{"scheme", "phase(active)"},
		Columns: []Column{{"Jain", Fixed3}, {"aggregate", BitRate}},
	}
	cells := make([]scenario.Document, len(schemes))
	for i, scheme := range schemes {
		cells[i] = testbed(o, scheme, 4, 5*unit, specs...)
		cells[i].SampleMs = pick(o, 100.0, 250.0, 500.0)
	}
	results, err := out.run(o, cells)
	if err != nil {
		return nil, err
	}
	activeIn := [][]int{{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}}
	phases := []string{"4 queues", "3 queues", "2 queues", "1 queue"}
	for i, res := range results {
		for p, active := range activeIn {
			// Skip the convergence transient right after a stop.
			from, to := boundaries[p].Add(unit/5), boundaries[p+1]
			r := Row{
				Labels: []string{string(schemes[i]), phases[p]},
				Values: []float64{res.Static.JainOver(active, from, to), float64(res.Static.AvgAggregate(from, to))},
			}
			if p == 0 {
				r.Series = res.Static.Samples
			}
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// Fig5 runs the equal-weight bandwidth-sharing experiment with queue
// departures for BestEffort, PQL and DynaQ.
func Fig5(o experiment.Options) (*Figure, error) {
	return phasedRun(o, "fig5", experiment.NonECNSchemes(), [4]string{})
}

// Fig7 repeats Fig5 under DynaQ with CUBIC senders on queues 3 and 4 — the
// protocol-independence demonstration.
func Fig7(o experiment.Options) (*Figure, error) {
	return phasedRun(o, "fig7", []experiment.Scheme{experiment.DynaQ}, [4]string{2: "cubic", 3: "cubic"})
}

// Fig6 runs the weighted sharing experiment of Figure 6 for BestEffort,
// PQL and DynaQ: each queue's throughput share under DRR weights 4:3:2:1
// against its ideal, and the weighted Jain index (1 = perfectly
// weighted-fair).
func Fig6(o experiment.Options) (*Figure, error) {
	dur := pick(o, 3*units.Second, 10*units.Second, 10*units.Second)
	weights := []int64{4, 3, 2, 1}
	var specs []scenario.Spec
	for q := 1; q <= 4; q++ {
		specs = append(specs, scenario.Spec{Class: q - 1, Flows: 1 << q})
	}
	out := &Figure{
		Name:    "fig6",
		Labels:  bySchemes,
		Columns: fixed3("q1 (0.4)", "q2 (0.3)", "q3 (0.2)", "q4 (0.1)", "weighted Jain"),
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, experiment.NonECNSchemes(), func(scheme experiment.Scheme) scenario.Document {
		cell := testbed(o, scheme, 4, dur, specs...)
		cell.Weights = weights
		return cell
	}, func(res *experiment.StaticResult) Row {
		var r Row
		xs := make([]float64, 4)
		for q := range xs {
			r.Values = append(r.Values, res.ShareOf(q, warm, end))
			xs[q] = float64(res.AvgThroughput(q, warm, end))
		}
		r.Values = append(r.Values, metrics.WeightedJain(xs, weights))
		return r
	})
}

// highSpeedRun drives the Fig. 10-12 scenario on a star with 8 WRR queues:
// queue i has senders[i] single-flow senders; queues 2..8 stop every 50ms
// from 200ms. A row per scheme gives the mean and the worst per-sample Jain
// index over the active queues (the paper's plots dip at stop instants) and
// the mean and minimum aggregate throughput, and carries the series.
func highSpeedRun(o experiment.Options, name string, gbps float64, buf int64, rttUs float64, mtu int64, senders [8]int) (*Figure, error) {
	var stops [8]units.Duration
	var specs []scenario.Spec
	for q := 1; q <= 8; q++ {
		if q >= 2 {
			stops[q-1] = 200*units.Millisecond + units.Duration(q-2)*50*units.Millisecond
		}
		specs = append(specs, scenario.Spec{
			Class: q - 1,
			Flows: senders[q-1],
			Hosts: senders[q-1], // one flow per sender host
			StopS: stops[q-1].Seconds(),
		})
	}
	out := &Figure{
		Name:    name,
		Labels:  bySchemes,
		Columns: append(fixed3("mean Jain", "min Jain"), Column{"mean aggregate", BitRate}, Column{"min aggregate", BitRate}),
	}
	return out.staticRows(o, experiment.NonECNSchemes(), func(scheme experiment.Scheme) scenario.Document {
		return scenario.Document{
			Kind:      "static",
			Scheme:    string(scheme),
			Sched:     "wrr",
			RateGbps:  gbps,
			BufferB:   buf,
			Queues:    8,
			RTTUs:     rttUs,
			MTU:       mtu,
			MinRTOMs:  5,
			Seed:      o.Seed,
			DurationS: 0.6,
			SampleMs:  10,
			Specs:     specs,
		}
	}, func(res *experiment.StaticResult) Row {
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
			for q, stop := range stops {
				if stop == 0 || smp.At <= units.Time(stop).Add(20*units.Millisecond) {
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
		return Row{
			Values: []float64{sumJ / float64(nJ), minJ, float64(units.Rate(sumA / int64(nJ))), float64(minA)},
			Series: res.Samples,
		}
	})
}

// highSpeedSenders is the Fig. 10/11 sender table: 2·i single-flow senders
// for queue i, halved at quick scale.
func highSpeedSenders(o experiment.Options) (senders [8]int) {
	for i := range senders {
		senders[i] = pick(o, 1, 2, 2) * (i + 1)
	}
	return senders
}

// Fig10 runs the 10Gbps bandwidth-sharing simulation (2·i senders for
// queue i, Broadcom Trident+-like 192KB port buffer, 84µs RTT).
func Fig10(o experiment.Options) (*Figure, error) {
	return highSpeedRun(o, "fig10", 10, 192000, 84, 1500, highSpeedSenders(o))
}

// Fig11 repeats Fig10 at 100Gbps with jumbo frames and a Trident 3-like
// 1MB buffer (40µs RTT).
func Fig11(o experiment.Options) (*Figure, error) {
	return highSpeedRun(o, "fig11", 100, 1000000, 40, 9000, highSpeedSenders(o))
}

// Fig12 is the extreme traffic-dynamics run: queue i has 2^(3+i)
// single-flow senders (16 up to 2048 at full scale).
func Fig12(o experiment.Options) (*Figure, error) {
	shift := pick(o, 1, 2, 3)
	var senders [8]int
	for i := range senders {
		senders[i] = 1 << (shift + i + 1)
	}
	return highSpeedRun(o, "fig12", 100, 1000000, 40, 9000, senders)
}
