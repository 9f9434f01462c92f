package experiment

import (
	"errors"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
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

func TestSchedKindFactory(t *testing.T) {
	if _, err := SchedKind("nope").NewScheduler([]int64{1}, 1500, 1); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := SchedDRR.NewScheduler([]int64{1}, 1500, 2); err == nil {
		t.Error("DRR weight mismatch should fail")
	}
	if _, err := SchedSPQDRR.NewScheduler([]int64{1, 1}, 1500, 5); err == nil {
		t.Error("SPQ+DRR needs n-1 weights")
	}
	if _, err := SchedSPQDRR.NewScheduler([]int64{1, 1, 1, 1}, 1500, 5); err != nil {
		t.Errorf("valid SPQ+DRR rejected: %v", err)
	}
	if _, err := SchedWRR.NewScheduler([]int64{2, 1}, 1500, 2); err != nil {
		t.Errorf("valid WRR rejected: %v", err)
	}
}

// TestMQECNQuantaFollowMTU: on jumbo frames the DRR scheduler serves
// weight·9000 bytes per round, so the MQ-ECN instance a static run builds for
// its ports must estimate each queue's service rate from those same quanta,
// not from 1500-byte ones.
func TestMQECNQuantaFollowMTU(t *testing.T) {
	cfg := StaticConfig{
		Cell: Cell{Scheme: MQECN, Params: SchemeParams{Weights: []int64{2, 1}},
			Rate: 10 * units.Gbps, Delay: 10 * units.Microsecond, Buffer: units.MB, Queues: 2, MTU: 9000},
		Sched: SchedDRR, Specs: []QueueSpec{{Class: 0, Flows: 1}}, Duration: units.Second,
	}
	if _, err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	adm, err := Factories(cfg.Scheme, cfg.Sched, cfg.Params, cfg.MTU).NewAdmission(cfg.Buffer, cfg.Queues, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := adm.(*buffer.MQECN)
	want, err := buffer.NewMQECN(cfg.Rate, cfg.Params.BaseRTT, []units.ByteSize{2 * 9000, 9000})
	if err != nil {
		t.Fatal(err)
	}
	// One 100µs round: both queues well under the 10Gbps link rate, so
	// each threshold is set by its quantum.
	for _, m := range []*buffer.MQECN{got, want} {
		m.ObserveDequeue(nil, 0, 9000, 0)
		m.ObserveDequeue(nil, 1, 9000, units.Time(50*units.Microsecond))
		m.ObserveDequeue(nil, 0, 9000, units.Time(100*units.Microsecond))
	}
	for q := 0; q < cfg.Queues; q++ {
		if g, w := got.QueueThreshold(q), want.QueueThreshold(q); g != w {
			t.Errorf("queue %d: MQ-ECN threshold %v at MTU 9000, want %v (quanta of weight·MTU)", q, g, w)
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
// every congestion controller has its own name, and every extension scheme
// wires a rack through topology.Build.
func TestExtensionSurface(t *testing.T) {
	names := map[string]bool{}
	for _, c := range []transport.Controller{
		transport.NewReno(), transport.NewCubic(), transport.NewDCTCP(),
		transport.NewECNReno(), transport.NewTimely(),
	} {
		if names[c.Name()] {
			t.Errorf("duplicate controller name %q", c.Name())
		}
		names[c.Name()] = true
	}
	g, err := fabric.NewStar(2, testbedRate)
	if err != nil {
		t.Fatal(err)
	}
	p := SchemeParams{Rate: testbedRate, BaseRTT: fabric.Star.BaseRTT(testbedDelay), Weights: equalWeights(4)}
	for _, s := range []Scheme{BarberQ, DynaQTofino, DynaQNaiveVictim, DynaQWBDP} {
		if _, err := topology.Build(sim.New(), g, topology.Config{
			Delay: testbedDelay, Buffer: 85 * units.KB, Queues: 4, Factories: Factories(s, SchedDRR, p, testbedMTU),
		}); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// TestStarHostsNameTheirKey: a star too large for a fabric is refused under
// the document key its host count comes from: servers on an fct cell, specs
// on a static one, whose senders and own sinks make up the star. No document
// under scenario.MaxDocumentBytes holds the static one's half a million
// own-sink specs, so the loader's tests cannot reach it.
func TestStarHostsNameTheirKey(t *testing.T) {
	for _, key := range []string{"servers", "specs"} {
		_, err := newStar(1<<20, units.Gbps, key)
		var cerr *ConfigError
		if !errors.As(refusal(err), &cerr) || cerr.Field != key {
			t.Errorf("newStar(1<<20, %q) = %v, want a ConfigError on %q", key, err, key)
		}
	}
}
