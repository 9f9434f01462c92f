package dynaq_test

import (
	"testing"

	"dynaq"
)

// These tests exercise the public facade exactly as a downstream user
// would: only the dynaq package is imported.

func TestAlgorithmThroughFacade(t *testing.T) {
	st, err := dynaq.New(85*dynaq.KB, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumQueues() != 4 || st.Buffer() != 85*dynaq.KB {
		t.Fatal("metadata wrong")
	}
	backlog := make([]dynaq.ByteSize, 4)
	lens := dynaq.QueueLenFunc(func(i int) dynaq.ByteSize { return backlog[i] })
	res := st.Process(0, 1500, lens)
	if res.Verdict != dynaq.Pass {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	backlog[0] = st.Threshold(0)
	res = st.Process(0, 1500, lens)
	if res.Verdict != dynaq.Adjusted {
		t.Fatalf("verdict = %v, want adjusted", res.Verdict)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if dynaq.CycleCost(8) != 7 {
		t.Fatal("CycleCost(8) != 7")
	}
}

func TestECNModeThroughFacade(t *testing.T) {
	m, err := dynaq.NewECNMode(60*dynaq.KB, []int64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !m.ShouldMark(0, 61*dynaq.KB, 31*dynaq.KB) {
		t.Fatal("should mark")
	}
}

func TestQuantitiesThroughFacade(t *testing.T) {
	if got := dynaq.BDP(dynaq.Gbps, 500*dynaq.Microsecond); got != 62500 {
		t.Fatalf("BDP = %v", got)
	}
	if got := dynaq.Throughput(125*dynaq.MB, dynaq.Second); got != dynaq.Gbps {
		t.Fatalf("Throughput = %v", got)
	}
	if j := dynaq.Jain([]float64{1, 1}); j != 1 {
		t.Fatalf("Jain = %v", j)
	}
}

func TestStarNetworkThroughFacade(t *testing.T) {
	s := dynaq.NewSimulator()
	net, err := dynaq.NewStarNetwork(s, dynaq.StarConfig{
		Hosts:  2,
		Rate:   dynaq.Gbps,
		Delay:  125 * dynaq.Microsecond,
		Buffer: 85 * dynaq.KB,
		Queues: 4,
		// Scheme and Sched default to DynaQ + DRR.
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	var fct dynaq.Duration
	if _, err := net.Endpoints[0].StartFlow(dynaq.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: dynaq.MB,
		OnComplete: func(d dynaq.Duration) { done = true; fct = d },
	}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(dynaq.Time(dynaq.Second))
	if !done {
		t.Fatal("flow did not complete")
	}
	if fct <= 0 || fct > dynaq.Duration(dynaq.Second) {
		t.Fatalf("fct = %v", fct)
	}
	if net.Port(1).Stats().TxBytes < dynaq.MB {
		t.Fatal("no bytes delivered")
	}
}

func TestControllersThroughFacade(t *testing.T) {
	for _, c := range []dynaq.Controller{
		dynaq.NewRenoController(), dynaq.NewCubicController(), dynaq.NewDCTCPController(),
	} {
		if c.Name() == "" {
			t.Error("controller missing name")
		}
	}
}

func TestWorkloadsThroughFacade(t *testing.T) {
	for _, cdf := range []*dynaq.CDF{
		dynaq.WebSearch(), dynaq.DataMining(), dynaq.CacheWorkload(), dynaq.HadoopWorkload(),
	} {
		if cdf.Mean() <= 0 {
			t.Errorf("%s: bad mean", cdf.Name())
		}
	}
	g, err := dynaq.NewFlowGen(1, dynaq.WebSearch(), dynaq.Gbps, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NextSize() <= 0 || g.NextInterarrival() < 0 {
		t.Fatal("generator produced nonsense")
	}
}

func TestLeafSpineThroughFacade(t *testing.T) {
	s := dynaq.NewSimulator()
	net, err := dynaq.NewLeafSpineNetwork(s, dynaq.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		Rate:   10 * dynaq.Gbps,
		Delay:  10 * dynaq.Microsecond,
		Buffer: 192 * dynaq.KB,
		Queues: 4,
		Scheme: dynaq.SchemeDynaQ,
		Sched:  dynaq.SPQDRR,
		// SPQDRR weights: queue 0 strict, queues 1-3 DRR.
		Weights: []int64{1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := net.Endpoints[0].StartFlow(dynaq.FlowConfig{
		Flow: 1, Dst: 3, Class: 1, Size: dynaq.MB, MinRTO: 5 * dynaq.Millisecond,
		OnComplete: func(dynaq.Duration) { done = true },
	}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(dynaq.Time(dynaq.Second))
	if !done {
		t.Fatal("cross-rack flow did not complete")
	}
}

func TestMetricsThroughFacade(t *testing.T) {
	c := dynaq.NewFCTCollector()
	c.Add(10*dynaq.KB, dynaq.Millisecond)
	c.Add(20*dynaq.MB, 100*dynaq.Millisecond)
	if c.Avg(dynaq.SmallFlows) != dynaq.Millisecond {
		t.Fatal("small avg wrong")
	}
	if c.Avg(dynaq.LargeFlows) != 100*dynaq.Millisecond {
		t.Fatal("large avg wrong")
	}
	if c.Count(dynaq.AllFlows) != 2 {
		t.Fatal("count wrong")
	}
}

func TestExtensionSurfaceThroughFacade(t *testing.T) {
	// Every controller constructor produces a distinct named algorithm.
	names := map[string]bool{}
	for _, c := range []dynaq.Controller{
		dynaq.NewRenoController(), dynaq.NewCubicController(),
		dynaq.NewDCTCPController(), dynaq.NewECNRenoController(),
		dynaq.NewTimelyController(),
	} {
		if names[c.Name()] {
			t.Errorf("duplicate controller name %q", c.Name())
		}
		names[c.Name()] = true
	}
	// Extension schemes construct through the star builder.
	for _, scheme := range []dynaq.Scheme{
		dynaq.SchemeBarberQ, dynaq.SchemeDynaQTofino,
		dynaq.SchemeDynaQNaiveVictim, dynaq.SchemeDynaQWBDP,
	} {
		s := dynaq.NewSimulator()
		if _, err := dynaq.NewStarNetwork(s, dynaq.StarConfig{
			Hosts: 2, Rate: dynaq.Gbps, Delay: dynaq.Microsecond,
			Buffer: 85 * dynaq.KB, Queues: 4, Scheme: scheme,
		}); err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
	}
}

func TestRunSeedsThroughFacade(t *testing.T) {
	st, err := dynaq.RunSeeds(2, dynaq.Options{Scale: dynaq.ScaleQuick, Seed: 3},
		func(o dynaq.Options) (float64, error) { return float64(o.Seed), nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTraceRecorderThroughFacade(t *testing.T) {
	s := dynaq.NewSimulator()
	net, err := dynaq.NewStarNetwork(s, dynaq.StarConfig{
		Hosts: 2, Rate: dynaq.Gbps, Delay: dynaq.Microsecond,
		Buffer: 85 * dynaq.KB, Queues: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dynaq.NewEventRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(net.Port(1))
	if _, err := net.Endpoints[0].StartFlow(dynaq.FlowConfig{
		Flow: 1, Dst: 1, Size: 10 * dynaq.KB,
	}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(dynaq.Time(dynaq.Second))
	if rec.Count(dynaq.EvEnqueue) == 0 || rec.Count(dynaq.EvTransmit) == 0 {
		t.Fatalf("recorder saw nothing: %s", rec.Summary())
	}
}
