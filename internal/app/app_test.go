package app_test

import (
	"testing"

	"dynaq/internal/app"
	"dynaq/internal/buffer"
	"dynaq/internal/metrics"
	"dynaq/internal/pias"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// rack builds the §V-A2 testbed: 4 servers + 1 client, SPQ(1)+DRR(4).
func rack(t *testing.T) *topology.Star {
	t.Helper()
	s := sim.New()
	st, err := topology.NewStar(s, topology.StarConfig{
		Hosts:  5,
		Rate:   units.Gbps,
		Delay:  125 * units.Microsecond,
		Buffer: 85 * units.KB,
		Queues: 5,
		Factories: topology.Factories{
			NewScheduler: func(n int) (sched.Scheduler, error) {
				return sched.NewSPQDRR(1, []units.ByteSize{1500, 1500, 1500, 1500})
			},
			NewAdmission: func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
				return buffer.NewDynaQ(b, []int64{1, 1, 1, 1, 1})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func clientConfig(st *topology.Star, requests int) app.Config {
	classifier, _ := pias.NewClassifier(pias.DefaultDemotionThreshold, 0)
	return app.Config{
		Client:        st.Endpoints[4],
		Servers:       st.Endpoints[:4],
		CDF:           workload.WebSearch(),
		Load:          0.6,
		Capacity:      units.Gbps,
		Requests:      requests,
		ServiceQueues: 4,
		ClassOf:       classifier.ClassOf,
		MinRTO:        10 * units.Millisecond,
		Seed:          7,
	}
}

func TestNewClientValidation(t *testing.T) {
	st := rack(t)
	s := st.Sim
	_ = s
	bad := []app.Config{
		{},
		{Client: st.Endpoints[4]},
		{Client: st.Endpoints[4], Servers: st.Endpoints[:4], CDF: workload.WebSearch(),
			Load: 0.5, Capacity: units.Gbps, Requests: 0, ServiceQueues: 4},
		{Client: st.Endpoints[4], Servers: st.Endpoints[:4], CDF: workload.WebSearch(),
			Load: 0.5, Capacity: units.Gbps, Requests: 5, ServiceQueues: 0},
		{Client: st.Endpoints[4], Servers: st.Endpoints[:4], CDF: nil,
			Load: 0.5, Capacity: units.Gbps, Requests: 5, ServiceQueues: 4},
	}
	for i, cfg := range bad {
		if _, err := app.NewClient(st.Sim, cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestRequestResponseCompletes(t *testing.T) {
	st := rack(t)
	c, err := app.NewClient(st.Sim, clientConfig(st, 60))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	st.Sim.RunUntil(units.Time(60 * units.Second))
	if c.Issued() != 60 {
		t.Fatalf("issued = %d/60", c.Issued())
	}
	if c.Done() != 60 {
		t.Fatalf("done = %d/60 responses", c.Done())
	}
	if c.FCT.Count(metrics.AllFlows) != 60 {
		t.Fatalf("FCT records = %d", c.FCT.Count(metrics.AllFlows))
	}
	// Closed-loop latency includes the request round: every FCT exceeds
	// one base RTT (500µs).
	for _, rec := range c.FCT.Records() {
		if rec.FCT < 500*units.Microsecond {
			t.Fatalf("FCT %v below one RTT — request round not accounted", rec.FCT)
		}
	}
}

func TestConnectionPoolGrowsUnderBursts(t *testing.T) {
	st := rack(t)
	cfg := clientConfig(st, 300)
	cfg.Load = 0.9 // aggressive: concurrent responses exceed 5 per server
	c, err := app.NewClient(st.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	st.Sim.RunUntil(units.Time(120 * units.Second))
	if c.Done() < 295 {
		t.Fatalf("done = %d/300", c.Done())
	}
	if c.NewConnections == 0 {
		t.Error("expected pool growth beyond 5 connections/server at high load")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []metrics.FCTRecord {
		st := rack(t)
		c, err := app.NewClient(st.Sim, clientConfig(st, 40))
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		st.Sim.RunUntil(units.Time(60 * units.Second))
		return c.FCT.Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v (determinism broken)", i, a[i], b[i])
		}
	}
}
