package experiment

import (
	"dynaq/internal/metrics"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// microburstSpecs is the §II-C script: 16 long hog flows 250µs apart, then
// from 1s a burst of 6KB flows in queue 1, 1µs apart.
func microburstSpecs(hog, burst QueueSpec) []QueueSpec {
	hog.Flows, hog.Spacing = 16, units.Millisecond/4
	burst.Class, burst.Size, burst.Start, burst.Spacing = 1, 6*units.KB, units.Second, units.Microsecond
	return []QueueSpec{hog, burst}
}

// burstRow is the burst's average and p99 completion time in ms, then more.
func burstRow(res *StaticResult, more ...float64) Row {
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
func ExtMicroburst(o Options) (*Figure, error) {
	out := &Figure{
		Name:    "microburst-absorption",
		Labels:  bySchemes,
		Columns: fixed3("burst-avgFCT-ms", "burst-p99FCT-ms", "burst-drops", "evictions"),
	}
	// Hog: queue 2 from host 0. Burst: queue 1 from host 1. Both sink at
	// the receiver.
	specs := microburstSpecs(QueueSpec{Class: 2}, QueueSpec{Flows: pick(o, 16, 32, 32)})
	return out.staticRows(o, []Scheme{DynaQ, BarberQ, BestEffort}, func(scheme Scheme) StaticConfig {
		return testbedStatic(scheme, equalWeights(4), specs, 3*units.Second, o.Seed)
	}, func(res *StaticResult) Row { return burstRow(res, float64(res.QueueDrops[1]), float64(res.Evicted)) })
}

// ExtSharedMemory reproduces the other §II-C argument: a shared-memory
// switch running the dynamic-threshold (DT) algorithm lets a hot port
// absorb buffer "that can be assigned to the other ports", hurting a
// lightly-loaded port's bursts; dedicating each port its slice (here
// managed by DynaQ) keeps the quiet port's headroom intact.
func ExtSharedMemory(o Options) (*Figure, error) {
	out := &Figure{
		Name:    "shared-memory-vs-dedicated",
		Labels:  bySchemes,
		Columns: fixed3("burst-avgFCT-ms", "burst-p99FCT-ms", "quietport-drops"),
	}
	// Hot port: hosts 0 and 1 blast queue 0 at a sink of their own. Quiet
	// port, the receiver's: the microburst from host 1.
	specs := microburstSpecs(QueueSpec{Class: 0, Hosts: 2, OwnSink: true},
		QueueSpec{Flows: pick(o, 24, 48, 48), SharedHosts: 1})
	return out.staticRows(o, []Scheme{"DT-shared", "DynaQ-dedicated"}, func(setup Scheme) StaticConfig {
		cfg := testbedStatic(DynaQ, equalWeights(4), specs, 3*units.Second, o.Seed)
		if setup == "DT-shared" {
			// Under DT the buffer size names the switch's memory — the SRAM
			// covering both hot and quiet port — all of which any one port
			// may occupy, bounded only by α·free.
			cfg.Scheme, cfg.Buffer = DT, 2*testbedBuffer
		}
		return cfg
	}, func(res *StaticResult) Row { return burstRow(res, float64(res.Drops)) })
}

// ExtProtocolDependence demonstrates the paper's core motivation (§II-B)
// as a single experiment: two tenants share a port — queue 1 runs DCTCP
// (ECN-capable), queue 2 runs CUBIC (non-ECN, as a tenant VM might). An
// ECN-based isolation scheme can only slow the cooperating tenant: the
// CUBIC queue ignores marks and overruns the buffer. DynaQ's dropping
// thresholds discipline both.
func ExtProtocolDependence(o Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "protocol-dependence", Labels: bySchemes, Columns: fixed3("dctcp-share(0.5)", "Jain", "agg-Gbps")}
	specs := twoVsSixteen()
	specs[0].ECN, specs[0].Ctrl = true, newDCTCPCtrl
	specs[1].Ctrl = func() transport.Controller { return transport.NewCubic() }
	return out.staticRows(o, []Scheme{DynaQ, PMSB, MQECN, PerQueueECN}, func(scheme Scheme) StaticConfig {
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		cfg.Params = SchemeParams{Weights: cfg.Params.Weights, PerQueueK: 30 * units.KB}
		return cfg
	}, func(res *StaticResult) Row { return Row{Values: shareJainAgg(res, dur)} })
}

// ExtTofino verifies the §IV-A conjecture for programmable switches: with
// round-robin scheduling, DynaQ decided on dequeue-time-stale queue
// lengths (the bridged deq_qdepth register) still isolates service queues
// — "some inaccuracy is tolerable".
func ExtTofino(o Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "tofino-stale-queue-lengths", Labels: bySchemes, Columns: fixed3("q1-share(0.5)", "Jain", "agg-Gbps")}
	return out.staticRows(o, []Scheme{DynaQ, DynaQTofino, BestEffort}, func(scheme Scheme) StaticConfig {
		return testbedStatic(scheme, equalWeights(4), twoVsSixteen(), dur, o.Seed)
	}, func(res *StaticResult) Row { return Row{Values: shareJainAgg(res, dur)} })
}

// ExtTransportZoo pushes protocol independence past Fig. 7: four service
// queues each carry a *different* congestion-control algorithm — NewReno,
// CUBIC, DCTCP (falling back to loss signals since nothing marks), and a
// TIMELY-like delay-based controller. DynaQ must still split the link four
// ways; no ECN scheme could even be configured for this population.
func ExtTransportZoo(o Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "transport-zoo", Labels: bySchemes, Columns: fixed3("reno", "cubic", "dctcp", "timely", "Jain", "agg-Gbps")}
	ctrls := []func() transport.Controller{
		func() transport.Controller { return transport.NewReno() },
		func() transport.Controller { return transport.NewCubic() },
		func() transport.Controller { return transport.NewDCTCP() },
		func() transport.Controller { return transport.NewTimely() },
	}
	var specs []QueueSpec
	for q, ctrl := range ctrls {
		specs = append(specs, QueueSpec{Class: q, Flows: 4, Hosts: 1, Ctrl: ctrl})
	}
	warm, end := units.Time(dur/5), units.Time(dur)
	return out.staticRows(o, []Scheme{DynaQ, BestEffort}, func(scheme Scheme) StaticConfig {
		return testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
	}, func(res *StaticResult) Row {
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
func ExtClosedLoop(o Options) (*Figure, error) {
	cfg := testbedFCT(o, SchemeParams{Weights: equalWeights(5)})
	cfg.RequestResponse = true
	cfg.Flows = pick(o, 150, 1000, 10000)
	cfg.MaxRuntime = pick(o, 60*units.Second, 120*units.Second, 600*units.Second)
	loads := pick(o, []float64{0.6}, []float64{0.5, 0.8}, []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	return fctRun("ext-closedloop", NonECNSchemes(), loads, cfg, o.Parallel)
}

// ExtDynaQECNMode compares DynaQ's two faces (§III-B3): drop mode with
// plain TCP versus ECN mode (PMSB-style marking) with DCTCP. Both must
// isolate the 2-vs-16-flow queues; ECN mode additionally keeps the
// bottleneck port drop-free.
func ExtDynaQECNMode(o Options) (*Figure, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &Figure{Name: "dynaq-ecn-mode", Labels: bySchemes, Columns: fixed3("q1-share(0.5)", "Jain", "agg-Gbps", "drops-k")}
	return out.staticRows(o, []Scheme{DynaQ, DynaQECN}, func(scheme Scheme) StaticConfig {
		specs := twoVsSixteen()
		if scheme.IsECNBased() {
			for i := range specs {
				specs[i].Ctrl = newDCTCPCtrl
				specs[i].ECN = true
			}
		}
		return testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
	}, func(res *StaticResult) Row {
		return Row{Values: append(shareJainAgg(res, dur), float64(res.Drops)/1000)}
	})
}
