package experiment

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/units"
)

func TestSchemeFactoryValidation(t *testing.T) {
	p := SchemeParams{Rate: units.Gbps, BaseRTT: 500 * units.Microsecond, Weights: []int64{1, 1}}
	if _, err := Scheme("nope").NewAdmission(p, 85*units.KB, 2); err == nil {
		t.Error("unknown scheme should fail")
	}
	if _, err := DynaQ.NewAdmission(p, 85*units.KB, 3); err == nil {
		t.Error("weight/queue mismatch should fail")
	}
	for _, s := range []Scheme{BestEffort, PQL, DynaQ, TCN, PMSB, PerQueueECN, MQECN, TCNDrop} {
		adm, err := s.NewAdmission(p, 85*units.KB, 2)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if adm.Name() == "" {
			t.Errorf("%s: empty name", s)
		}
	}
}

func TestSchemeECNClassification(t *testing.T) {
	for _, s := range []Scheme{TCN, PMSB, PerQueueECN, MQECN} {
		if !s.IsECNBased() {
			t.Errorf("%s should be ECN-based", s)
		}
	}
	for _, s := range []Scheme{BestEffort, PQL, DynaQ, TCNDrop} {
		if s.IsECNBased() {
			t.Errorf("%s should not be ECN-based", s)
		}
	}
}

func TestStaticResultHelpers(t *testing.T) {
	res := &StaticResult{
		Samples: []metrics.ThroughputSample{
			{At: units.Time(units.Second), PerQueue: []units.Rate{100, 300}, Aggregate: 400},
			{At: units.Time(2 * units.Second), PerQueue: []units.Rate{200, 200}, Aggregate: 400},
		},
	}
	if got := res.AvgThroughput(0, 0, units.Time(2*units.Second)); got != 150 {
		t.Errorf("AvgThroughput = %v", got)
	}
	if got := res.AvgAggregate(0, units.Time(2*units.Second)); got != 400 {
		t.Errorf("AvgAggregate = %v", got)
	}
	if got := res.ShareOf(0, 0, units.Time(2*units.Second)); got != 300.0/800 {
		t.Errorf("ShareOf = %v", got)
	}
	if got := res.JainOver([]int{0, 1}, 0, units.Time(units.Second)); got != 0.8 {
		// (100+300)²/(2·(100²+300²)) = 160000/200000 = 0.8.
		t.Errorf("JainOver = %v", got)
	}
	// Empty windows report zeros.
	if res.AvgThroughput(0, units.Time(5*units.Second), units.Time(6*units.Second)) != 0 {
		t.Error("empty window should be 0")
	}
	if res.ShareOf(0, units.Time(5*units.Second), units.Time(6*units.Second)) != 0 {
		t.Error("empty window share should be 0")
	}
}

func TestScaleLevelString(t *testing.T) {
	for lvl, want := range map[ScaleLevel]string{
		Quick: "quick", Standard: "standard", Full: "full", ScaleLevel(9): "ScaleLevel(9)",
	} {
		if got := lvl.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", lvl, got, want)
		}
	}
}

func TestAblationSchemesConstruct(t *testing.T) {
	p := SchemeParams{Rate: units.Gbps, BaseRTT: 500 * units.Microsecond, Weights: []int64{1, 1}}
	for _, s := range []Scheme{DynaQNaiveVictim, DynaQWBDP} {
		adm, err := s.NewAdmission(p, 85*units.KB, 2)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if adm.Name() != string(s) {
			t.Errorf("%s: Name() = %q", s, adm.Name())
		}
	}
}

// TestExtensionSurface checks the pieces the extension figures plug in:
// every extension scheme wires a rack through topology.Build. (Every
// controller's name is transport's TestControllerTable.)
func TestExtensionSurface(t *testing.T) {
	drr, err := sched.LookupKind("drr")
	if err != nil {
		t.Fatal(err)
	}
	g, err := fabric.NewStar(2, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	p := SchemeParams{Rate: units.Gbps, BaseRTT: fabric.Star.BaseRTT(125 * units.Microsecond), Weights: []int64{1, 1, 1, 1}}
	for _, s := range []Scheme{BarberQ, DynaQTofino, DynaQNaiveVictim, DynaQWBDP} {
		f := topology.Factories{
			NewScheduler: func(n int) (sched.Scheduler, error) { return drr.New(p.Weights, 1500, n) },
			NewAdmission: func(b units.ByteSize, n int, mem *buffer.SharedPool) (buffer.Admission, error) {
				return buffer.NewScheme(string(s), p, b, n, mem)
			},
		}
		if _, err := topology.Build(sim.New(), g, topology.Config{
			Delay: 125 * units.Microsecond, Buffer: 85 * units.KB, Queues: 4, Factories: f,
		}); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

var quick = Options{Scale: Quick, Seed: 1}
