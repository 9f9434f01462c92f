package experiment

import (
	"dynaq/internal/app"
	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/packet"
	"dynaq/internal/pias"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// ExtMicroburst compares how the schemes absorb a synchronized microburst
// of small flows into a port whose buffer is monopolized by a long-flow
// hog queue. It extends the paper's §II-C discussion: BarberQ ([12])
// evicts the hog's packets to make room, DynaQ protects the burst queue's
// threshold budget, BestEffort simply drops the burst.
func ExtMicroburst(o Options) (*AblationResult, error) {
	out := &AblationResult{
		Name:    "microburst-absorption",
		Labels:  []string{"burst-avgFCT-ms", "burst-p99FCT-ms", "burst-drops", "evictions"},
		Schemes: []Scheme{DynaQ, BarberQ, BestEffort},
	}
	burstFlows := pick(o, 16, 32, 32)
	for _, scheme := range out.Schemes {
		s := sim.New()
		star, err := topology.NewStar(s, topology.StarConfig{
			Hosts:  3,
			Rate:   testbedRate,
			Delay:  testbedDelay,
			Buffer: testbedBuffer,
			Queues: 4,
			Factories: Factories(scheme, SchedDRR,
				SchemeParams{Rate: testbedRate, BaseRTT: fabric.Star.BaseRTT(testbedDelay), Weights: equalWeights(4)},
				testbedMTU),
		})
		if err != nil {
			return nil, err
		}
		const receiver = 2
		// Hog: 16 long flows on queue 2 from host 0.
		for i := 0; i < 16; i++ {
			id := packet.FlowID(1 + i)
			at := units.Time(i) * units.Time(units.Millisecond) / 4
			s.At(at, func() {
				if _, err := star.Endpoints[0].StartFlow(transport.FlowConfig{
					Flow: id, Dst: receiver, Class: 2,
				}); err != nil {
					panic(err)
				}
			})
		}
		// Burst: at 1s, burstFlows small flows (6KB each) hit queue 1
		// from host 1 within a few microseconds of each other.
		fct := metrics.NewFCTCollector()
		for i := 0; i < burstFlows; i++ {
			id := packet.FlowID(100 + i)
			at := units.Time(units.Second).Add(units.Duration(i) * units.Microsecond)
			s.At(at, func() {
				if _, err := star.Endpoints[1].StartFlow(transport.FlowConfig{
					Flow: id, Dst: receiver, Class: 1, Size: 6 * units.KB,
					OnComplete: func(d units.Duration) { fct.Add(6*units.KB, d) },
				}); err != nil {
					panic(err)
				}
			})
		}
		dropsBefore := int64(0)
		s.At(units.Time(units.Second-units.Picosecond), func() {
			dropsBefore = star.Port(receiver).QueueDrops(1)
		})
		s.RunUntil(units.Time(3 * units.Second))
		port := star.Port(receiver)
		out.Rows = append(out.Rows, []float64{
			float64(fct.Avg(metrics.AllFlows)) / float64(units.Millisecond),
			float64(fct.Percentile(metrics.AllFlows, 0.99)) / float64(units.Millisecond),
			float64(port.QueueDrops(1) - dropsBefore),
			float64(port.Stats().Evicted),
		})
	}
	return out, nil
}

// ExtSharedMemory reproduces the other §II-C argument: a shared-memory
// switch running the dynamic-threshold (DT) algorithm lets a hot port
// absorb buffer "that can be assigned to the other ports", hurting a
// lightly-loaded port's bursts; dedicating each port its slice (here
// managed by DynaQ) keeps the quiet port's headroom intact.
func ExtSharedMemory(o Options) (*AblationResult, error) {
	out := &AblationResult{
		Name:    "shared-memory-vs-dedicated",
		Labels:  []string{"burst-avgFCT-ms", "burst-p99FCT-ms", "quietport-drops"},
		Schemes: []Scheme{"DT-shared", "DynaQ-dedicated"},
	}
	totalMem := 2 * testbedBuffer // the switch SRAM covering both hot and quiet port
	burstFlows := pick(o, 24, 48, 48)
	for _, mode := range out.Schemes {
		s := sim.New()
		var pool *buffer.SharedPool
		perPort := testbedBuffer
		factories := Factories(DynaQ, SchedDRR, SchemeParams{Weights: equalWeights(4)}, testbedMTU)
		if mode == "DT-shared" {
			var err error
			if pool, err = buffer.NewSharedPool(totalMem); err != nil {
				return nil, err
			}
			// Under DT any port may occupy up to the whole SRAM,
			// bounded only by α·free.
			perPort = totalMem
			factories.NewAdmission = func(units.ByteSize, int) (buffer.Admission, error) {
				return buffer.NewDT(pool, 2)
			}
		}
		rack, err := fabric.NewStar(4, testbedRate)
		if err != nil {
			return nil, err
		}
		net, err := topology.Build(s, rack, topology.Config{
			Delay: testbedDelay, Buffer: perPort, Queues: 4, Pool: pool, Factories: factories,
		})
		if err != nil {
			return nil, err
		}
		// Hot port: hosts 0 and 1 blast 16 long flows at host 2.
		for i := 0; i < 16; i++ {
			id := packet.FlowID(1 + i)
			src := i % 2
			at := units.Time(i) * units.Time(units.Millisecond) / 4
			s.At(at, func() {
				if _, err := net.Endpoints[src].StartFlow(transport.FlowConfig{
					Flow: id, Dst: 2, Class: 0,
				}); err != nil {
					panic(err)
				}
			})
		}
		// Quiet port: a microburst at 1s from host 0 to host 3.
		fct := metrics.NewFCTCollector()
		for i := 0; i < burstFlows; i++ {
			id := packet.FlowID(100 + i)
			at := units.Time(units.Second).Add(units.Duration(i) * units.Microsecond)
			s.At(at, func() {
				if _, err := net.Endpoints[1].StartFlow(transport.FlowConfig{
					Flow: id, Dst: 3, Class: 1, Size: 6 * units.KB,
					OnComplete: func(d units.Duration) { fct.Add(6*units.KB, d) },
				}); err != nil {
					panic(err)
				}
			})
		}
		s.RunUntil(units.Time(3 * units.Second))
		out.Rows = append(out.Rows, []float64{
			float64(fct.Avg(metrics.AllFlows)) / float64(units.Millisecond),
			float64(fct.Percentile(metrics.AllFlows, 0.99)) / float64(units.Millisecond),
			float64(net.HostPort(3).Stats().Dropped),
		})
	}
	return out, nil
}

// ExtProtocolDependence demonstrates the paper's core motivation (§II-B)
// as a single experiment: two tenants share a port — queue 1 runs DCTCP
// (ECN-capable), queue 2 runs CUBIC (non-ECN, as a tenant VM might). An
// ECN-based isolation scheme can only slow the cooperating tenant: the
// CUBIC queue ignores marks and overruns the buffer. DynaQ's dropping
// thresholds discipline both.
func ExtProtocolDependence(o Options) (*AblationResult, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &AblationResult{
		Name:    "protocol-dependence",
		Labels:  []string{"dctcp-share(0.5)", "Jain", "agg-Gbps"},
		Schemes: []Scheme{DynaQ, PMSB, MQECN, PerQueueECN},
	}
	for _, scheme := range out.Schemes {
		specs := []QueueSpec{
			{Class: 1, Flows: 2, Hosts: 1, ECN: true,
				Ctrl: func() transport.Controller { return transport.NewDCTCP() }},
			{Class: 2, Flows: 16, Hosts: 1,
				Ctrl: func() transport.Controller { return transport.NewCubic() }},
		}
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		cfg.Params = SchemeParams{Weights: cfg.Params.Weights, PerQueueK: 30 * units.KB}
		res, err := RunStatic(cfg)
		if err != nil {
			return nil, err
		}
		warm, end := units.Time(dur/5), units.Time(dur)
		out.Rows = append(out.Rows, []float64{
			res.ShareOf(1, warm, end),
			res.JainOver([]int{1, 2}, warm, end),
			float64(res.AvgAggregate(warm, end)) / 1e9,
		})
	}
	return out, nil
}

// ExtTofino verifies the §IV-A conjecture for programmable switches: with
// round-robin scheduling, DynaQ decided on dequeue-time-stale queue
// lengths (the bridged deq_qdepth register) still isolates service queues
// — "some inaccuracy is tolerable".
func ExtTofino(o Options) (*AblationResult, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &AblationResult{
		Name:    "tofino-stale-queue-lengths",
		Labels:  []string{"q1-share(0.5)", "Jain", "agg-Gbps"},
		Schemes: []Scheme{DynaQ, DynaQTofino, BestEffort},
	}
	for _, scheme := range out.Schemes {
		specs := []QueueSpec{
			{Class: 1, Flows: 2, Hosts: 1},
			{Class: 2, Flows: 16, Hosts: 1},
		}
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		res, err := RunStatic(cfg)
		if err != nil {
			return nil, err
		}
		warm, end := units.Time(dur/5), units.Time(dur)
		out.Rows = append(out.Rows, []float64{
			res.ShareOf(1, warm, end),
			res.JainOver([]int{1, 2}, warm, end),
			float64(res.AvgAggregate(warm, end)) / 1e9,
		})
	}
	return out, nil
}

// ExtTransportZoo pushes protocol independence past Fig. 7: four service
// queues each carry a *different* congestion-control algorithm — NewReno,
// CUBIC, DCTCP (falling back to loss signals since nothing marks), and a
// TIMELY-like delay-based controller. DynaQ must still split the link four
// ways; no ECN scheme could even be configured for this population.
func ExtTransportZoo(o Options) (*AblationResult, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &AblationResult{
		Name:    "transport-zoo",
		Labels:  []string{"reno", "cubic", "dctcp", "timely", "Jain", "agg-Gbps"},
		Schemes: []Scheme{DynaQ, BestEffort},
	}
	ctrls := []func() transport.Controller{
		func() transport.Controller { return transport.NewReno() },
		func() transport.Controller { return transport.NewCubic() },
		func() transport.Controller { return transport.NewDCTCP() },
		func() transport.Controller { return transport.NewTimely() },
	}
	for _, scheme := range out.Schemes {
		var specs []QueueSpec
		for q := 0; q < 4; q++ {
			specs = append(specs, QueueSpec{
				Class: q, Flows: 4, Hosts: 1, Ctrl: ctrls[q],
			})
		}
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		res, err := RunStatic(cfg)
		if err != nil {
			return nil, err
		}
		warm, end := units.Time(dur/5), units.Time(dur)
		xs := make([]float64, 4)
		row := make([]float64, 0, 6)
		for q := 0; q < 4; q++ {
			xs[q] = float64(res.AvgThroughput(q, warm, end))
			row = append(row, res.ShareOf(q, warm, end))
		}
		row = append(row, metrics.Jain(xs), float64(res.AvgAggregate(warm, end))/1e9)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ExtClosedLoop reruns the Fig. 8 comparison with the §V-A2 application
// model instead of the open-loop generator: a client holding persistent
// connections to 4 servers issues Poisson requests; responses carry the
// web-search sizes. Latency is user-perceived (request issue → response
// completion).
func ExtClosedLoop(o Options) (*FCTResult, error) {
	requests := pick(o, 150, 1000, 10000)
	loads := pick(o, []float64{0.6}, []float64{0.5, 0.8}, []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	horizon := pick(o, 60*units.Second, 120*units.Second, 600*units.Second)
	schemes := NonECNSchemes()
	cells := make([]fctCell, 0, len(loads)*len(schemes))
	for _, load := range loads {
		for _, scheme := range schemes {
			cells = append(cells, fctCell{load: load, scheme: scheme})
		}
	}
	// Each cell builds its whole world — simulator, star, classifier,
	// client — inside the trial, so cells parallelize like the open-loop
	// FCT figures.
	stats, err := RunTrials(len(cells), o.Parallel, func(i int) (FCTStats, error) {
		load, scheme := cells[i].load, cells[i].scheme
		s := sim.New()
		star, err := topology.NewStar(s, topology.StarConfig{
			Hosts:  5,
			Rate:   testbedRate,
			Delay:  testbedDelay,
			Buffer: testbedBuffer,
			Queues: 5,
			Factories: Factories(scheme, SchedSPQDRR,
				SchemeParams{Rate: testbedRate, BaseRTT: fabric.Star.BaseRTT(testbedDelay),
					Weights: equalWeights(5)}, testbedMTU),
		})
		if err != nil {
			return FCTStats{}, err
		}
		classifier, err := pias.NewClassifier(pias.DefaultDemotionThreshold, 0)
		if err != nil {
			return FCTStats{}, err
		}
		client, err := app.NewClient(s, app.Config{
			Client:        star.Endpoints[4],
			Servers:       star.Endpoints[:4],
			CDF:           workload.WebSearch(),
			Load:          load,
			Capacity:      testbedRate,
			Requests:      requests,
			ServiceQueues: 4,
			ClassOf:       classifier.ClassOf,
			MinRTO:        testbedMinRTO,
			Seed:          o.Seed,
		})
		if err != nil {
			return FCTStats{}, err
		}
		client.Start()
		for client.Done() < requests && s.Pending() > 0 && s.Now() < units.Time(horizon) {
			s.Step()
		}
		return FCTStats{
			Scheme:     scheme,
			Load:       load,
			AvgOverall: client.FCT.Avg(metrics.AllFlows),
			AvgSmall:   client.FCT.Avg(metrics.SmallFlows),
			AvgLarge:   client.FCT.Avg(metrics.LargeFlows),
			P99Small:   client.FCT.Percentile(metrics.SmallFlows, 0.99),
			Completed:  client.Done(),
			Generated:  client.Issued(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &FCTResult{Figure: "ext-closedloop", Cells: stats}, nil
}

// ExtDynaQECNMode compares DynaQ's two faces (§III-B3): drop mode with
// plain TCP versus ECN mode (PMSB-style marking) with DCTCP. Both must
// isolate the 2-vs-16-flow queues; ECN mode additionally keeps the
// bottleneck port drop-free.
func ExtDynaQECNMode(o Options) (*AblationResult, error) {
	dur := pick(o, 4*units.Second, 10*units.Second, 10*units.Second)
	out := &AblationResult{
		Name:    "dynaq-ecn-mode",
		Labels:  []string{"q1-share(0.5)", "Jain", "agg-Gbps", "drops-k"},
		Schemes: []Scheme{DynaQ, DynaQECN},
	}
	for _, scheme := range out.Schemes {
		specs := []QueueSpec{
			{Class: 1, Flows: 2, Hosts: 1},
			{Class: 2, Flows: 16, Hosts: 1},
		}
		if scheme.IsECNBased() {
			for i := range specs {
				specs[i].Ctrl = newDCTCPCtrl
				specs[i].ECN = true
			}
		}
		cfg := testbedStatic(scheme, equalWeights(4), specs, dur, o.Seed)
		res, err := RunStatic(cfg)
		if err != nil {
			return nil, err
		}
		warm, end := units.Time(dur/5), units.Time(dur)
		out.Rows = append(out.Rows, []float64{
			res.ShareOf(1, warm, end),
			res.JainOver([]int{1, 2}, warm, end),
			float64(res.AvgAggregate(warm, end)) / 1e9,
			float64(res.Drops) / 1000,
		})
	}
	return out, nil
}
