package figures

import (
	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
)

// microburstSpecs is the §II-C script: 16 long hog flows 250µs apart, then
// from 1s a burst of 6KB flows in queue 1, 1µs apart.
func microburstSpecs(hog, burst scenario.Spec) []scenario.Spec {
	hog.Flows, hog.SpacingS = 16, (units.Millisecond / 4).Seconds()
	burst.Class, burst.SizeB, burst.StartS, burst.SpacingS = 1, 6000, 1, units.Microsecond.Seconds()
	return []scenario.Spec{hog, burst}
}

// burstRow is the burst's average and p99 completion time in ms, then more.
func burstRow(res *experiment.StaticResult, more ...float64) Row {
	return Row{Values: append([]float64{
		float64(res.FCT.Avg(metrics.AllFlows)) / float64(units.Millisecond),
		float64(res.FCT.Percentile(metrics.AllFlows, 0.99)) / float64(units.Millisecond),
	}, more...)}
}

// ExtMicroburst compares how the schemes absorb a synchronized microburst
// of small flows into a port whose buffer is monopolized by a long-flow
// hog queue. It extends the paper's §II-C discussion: BarberQ ([12])
// evicts the hog's packets to make room, DynaQ protects the burst queue's
// threshold budget, BestEffort simply drops the burst.
func ExtMicroburst(o experiment.Options) (*Figure, error) {
	out := &Figure{
		Name:    "microburst-absorption",
		Labels:  bySchemes,
		Columns: fixed3("burst-avgFCT-ms", "burst-p99FCT-ms", "burst-drops", "evictions"),
	}
	// Hog: queue 2 from host 0. Burst: queue 1 from host 1. Both sink at
	// the receiver.
	specs := microburstSpecs(scenario.Spec{Class: 2}, scenario.Spec{Flows: pick(o, 16, 32, 32)})
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.BarberQ, experiment.BestEffort}, func(scheme experiment.Scheme) scenario.Document {
		return testbed(o, scheme, 4, 3*units.Second, specs...)
	}, func(res *experiment.StaticResult) Row {
		return burstRow(res, float64(res.QueueDrops[1]), float64(res.Evicted))
	})
}

// ExtSharedMemory reproduces the other §II-C argument: a shared-memory
// switch running the dynamic-threshold (DT) algorithm lets a hot port
// absorb buffer "that can be assigned to the other ports", hurting a
// lightly-loaded port's bursts; dedicating each port its slice (here
// managed by DynaQ) keeps the quiet port's headroom intact.
func ExtSharedMemory(o experiment.Options) (*Figure, error) {
	out := &Figure{
		Name:    "shared-memory-vs-dedicated",
		Labels:  bySchemes,
		Columns: fixed3("burst-avgFCT-ms", "burst-p99FCT-ms", "quietport-drops"),
	}
	// Hot port: hosts 0 and 1 blast queue 0 at a sink of their own. Quiet
	// port, the receiver's: the microburst from host 1.
	specs := microburstSpecs(scenario.Spec{Class: 0, Hosts: 2, OwnSink: true},
		scenario.Spec{Flows: pick(o, 24, 48, 48), SharedHosts: 1})
	return out.staticRows(o, []experiment.Scheme{"DT-shared", "DynaQ-dedicated"}, func(setup experiment.Scheme) scenario.Document {
		cell := testbed(o, experiment.DynaQ, 4, 3*units.Second, specs...)
		if setup == "DT-shared" {
			// Under DT the buffer size names the switch's memory — the SRAM
			// covering both hot and quiet port — all of which any one port
			// may occupy, bounded only by α·free.
			cell.Scheme, cell.BufferB = string(experiment.DT), 2*cell.BufferB
		}
		return cell
	}, func(res *experiment.StaticResult) Row { return burstRow(res, float64(res.Drops)) })
}

// ExtProtocolDependence demonstrates the paper's core motivation (§II-B)
// as a single experiment: two tenants share a port — queue 1 runs DCTCP
// (ECN-capable), queue 2 runs CUBIC (non-ECN, as a tenant VM might). An
// ECN-based isolation scheme can only slow the cooperating tenant: the
// CUBIC queue ignores marks and overruns the buffer. DynaQ's dropping
// thresholds discipline both.
func ExtProtocolDependence(o experiment.Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "protocol-dependence", Labels: bySchemes, Columns: fixed3("dctcp-share(0.5)", "Jain", "agg-Gbps")}
	specs := twoVsSixteen()
	specs[0].ECN, specs[0].Ctrl = true, "dctcp"
	specs[1].Ctrl = "cubic"
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.PMSB, experiment.MQECN, experiment.PerQueueECN}, func(scheme experiment.Scheme) scenario.Document {
		cell := testbed(o, scheme, 4, dur, specs...)
		cell.PerQueueKB = 30000
		return cell
	}, func(res *experiment.StaticResult) Row { return Row{Values: shareJainAgg(res, dur)} })
}

// ExtTofino verifies the §IV-A conjecture for programmable switches: with
// round-robin scheduling, DynaQ decided on dequeue-time-stale queue
// lengths (the bridged deq_qdepth register) still isolates service queues
// — "some inaccuracy is tolerable".
func ExtTofino(o experiment.Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "tofino-stale-queue-lengths", Labels: bySchemes, Columns: fixed3("q1-share(0.5)", "Jain", "agg-Gbps")}
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.DynaQTofino, experiment.BestEffort}, func(scheme experiment.Scheme) scenario.Document {
		return testbed(o, scheme, 4, dur, twoVsSixteen()...)
	}, func(res *experiment.StaticResult) Row { return Row{Values: shareJainAgg(res, dur)} })
}

// ExtTransportZoo pushes protocol independence past Fig. 7: four service
// queues each carry a *different* congestion-control algorithm — NewReno,
// CUBIC, DCTCP (falling back to loss signals since nothing marks), and a
// TIMELY-like delay-based controller. DynaQ must still split the link four
// ways; no ECN scheme could even be configured for this population.
func ExtTransportZoo(o experiment.Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "transport-zoo", Labels: bySchemes, Columns: fixed3("reno", "cubic", "dctcp", "timely", "Jain", "agg-Gbps")}
	var specs []scenario.Spec
	for q, ctrl := range []string{"reno", "cubic", "dctcp", "timely"} {
		specs = append(specs, scenario.Spec{Class: q, Flows: 4, Ctrl: ctrl})
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.BestEffort}, func(scheme experiment.Scheme) scenario.Document {
		return testbed(o, scheme, 4, dur, specs...)
	}, func(res *experiment.StaticResult) Row {
		xs := make([]float64, 4)
		row := make([]float64, 0, 6)
		for q := range xs {
			xs[q] = float64(res.AvgThroughput(q, warm, end))
			row = append(row, res.ShareOf(q, warm, end))
		}
		return Row{Values: append(row, metrics.Jain(xs), float64(res.AvgAggregate(warm, end))/1e9)}
	})
}

// ExtClosedLoop reruns the Fig. 8 comparison with the §V-A2 application
// model instead of the open-loop generator: the client's Poisson requests
// each pull a web-search-sized response from one of the 4 servers, and
// latency is user-perceived (request issue → response completion).
func ExtClosedLoop(o experiment.Options) (*Figure, error) {
	base := testbedFCT(o)
	base.RequestResponse = true
	base.Flows = pick(o, 150, 1000, 10000)
	base.MaxRuntimeS = pick(o, 60.0, 120.0, 600.0)
	loads := pick(o, []float64{0.6}, []float64{0.5, 0.8}, []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	return fctRows(o, "ext-closedloop", experiment.NonECNSchemes(), loads, base)
}

// ExtDynaQECN compares DynaQ's two faces (§III-B3): drop mode with
// plain TCP versus ECN mode (PMSB's marking) with DCTCP. Both must
// isolate the 2-vs-16-flow queues; ECN mode additionally keeps the
// bottleneck port drop-free.
func ExtDynaQECN(o experiment.Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "dynaq-ecn-mode", Labels: bySchemes, Columns: fixed3("q1-share(0.5)", "Jain", "agg-Gbps", "drops-k")}
	return out.staticRows(o, []experiment.Scheme{experiment.DynaQ, experiment.DynaQECN}, func(scheme experiment.Scheme) scenario.Document {
		return testbed(o, scheme, 4, dur, transportFor(scheme, twoVsSixteen()...)...)
	}, func(res *experiment.StaticResult) Row {
		return Row{Values: append(shareJainAgg(res, dur), float64(res.Drops)/1000)}
	})
}
