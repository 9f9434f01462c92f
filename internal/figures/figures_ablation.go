package figures

import (
	"math"

	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
)

// AblationVictim reproduces the §III-B victim-selection argument: under
// DRR weights 4:3:2:1 the naive largest-threshold rule keeps victimizing
// the heavy queue (or dropping when it is protected), hurting weighted
// fairness and throughput; the paper's largest-extra rule does not.
func AblationVictim(o experiment.Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	// §III-B's own example: weights 1:2:3. The heavy queue (weight 3)
	// stops mid-run; while it is idle the naive rule keeps stripping its
	// threshold (it has the largest T), so on paper-weight terms the
	// heavy queue's budget — and with it the light queues' protection
	// structure — erodes, and overflowing queues drop against it while
	// it is active even when lighter queues hold surplus.
	weights := []int64{1, 2, 3}
	out := &Figure{
		Name:    "victim-selection",
		Labels:  bySchemes,
		Columns: fixed3("weighted-Jain", "q3-share(0.5)", "agg-Gbps", "drops-k"),
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.DynaQNaiveVictim}, func(scheme experiment.Scheme) scenario.Document {
		cell := testbed(o, scheme, 3, dur,
			scenario.Spec{Class: 0, Flows: 16}, // light queue floods
			scenario.Spec{Class: 1, Flows: 4},
			scenario.Spec{Class: 2, Flows: 2}) // heavy queue, few flows
		cell.Weights = weights
		return cell
	}, func(res *experiment.StaticResult) Row {
		xs := make([]float64, 3)
		for q := range xs {
			xs[q] = float64(res.AvgThroughput(q, warm, end))
		}
		return Row{Values: []float64{
			metrics.WeightedJain(xs, weights),
			res.ShareOf(2, warm, end),
			float64(res.AvgAggregate(warm, end)) / 1e9,
			float64(res.Drops) / 1000,
		}}
	})
}

// AblationSatisfaction reproduces the Eq. 3 headroom argument: with
// S_i = WBDP_i the thresholds leave no slack above the fair-share pipe, so
// the protected budget of a lightly-loaded queue erodes and its share
// destabilizes; S_i = B·w_i/Σw holds it steady.
func AblationSatisfaction(o experiment.Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{
		Name:    "satisfaction-threshold",
		Labels:  bySchemes,
		Columns: fixed3("q1-share(0.5)", "share-stddev", "Jain"),
	}
	warm, end := units.Time(dur/4), units.Time(dur)
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.DynaQWBDP}, func(scheme experiment.Scheme) scenario.Document {
		cell := testbed(o, scheme, 4, dur, twoVsSixteen()...)
		cell.SampleMs = 100
		return cell
	}, func(res *experiment.StaticResult) Row {
		// Per-sample share of queue 1 and its standard deviation: the
		// instability metric.
		var shares []float64
		for _, smp := range res.Window(warm, end) {
			if tot := smp.PerQueue[1] + smp.PerQueue[2]; tot != 0 {
				shares = append(shares, float64(smp.PerQueue[1])/float64(tot))
			}
		}
		mean, sd := meanStd(shares)
		return Row{Values: []float64{mean, sd, res.JainOver([]int{1, 2}, warm, end)}}
	})
}

// AblationDequeueDrop reproduces the §II-C TCN-drop argument: dropping the
// just-dequeued packet wastes its transmission slot, idling the link, on
// top of buffering a packet that is then thrown away. Two backlogged
// queues drive the port; the dropping variant must lose goodput.
func AblationDequeueDrop(o experiment.Options) (*Figure, error) {
	dur := pick(o, 3*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "tcn-dequeue-drop", Labels: bySchemes, Columns: fixed3("agg-Gbps", "Jain")}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.TCN, experiment.TCNDrop}, func(scheme experiment.Scheme) scenario.Document {
		// TCN needs DCTCP to react to its marks; TCNDrop and DynaQ run
		// plain TCP (drops are protocol-independent signals).
		return testbed(o, scheme, 4, dur, transportFor(scheme, scenario.Spec{Class: 1, Flows: 8}, scenario.Spec{Class: 2, Flows: 8})...)
	}, func(res *experiment.StaticResult) Row {
		return Row{Values: []float64{float64(res.AvgAggregate(warm, end)) / 1e9, res.JainOver([]int{1, 2}, warm, end)}}
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

// transportFor runs specs on DCTCP with ECN-capable packets under a marking
// scheme, and on the sender default otherwise.
func transportFor(scheme experiment.Scheme, specs ...scenario.Spec) []scenario.Spec {
	if scheme.IsECNBased() {
		for i := range specs {
			specs[i].Ctrl, specs[i].ECN = "dctcp", true
		}
	}
	return specs
}
