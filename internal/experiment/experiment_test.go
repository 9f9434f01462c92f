package experiment

import (
	"fmt"
	"strings"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

var quick = Options{Scale: Quick, Seed: 1}

// value reads the named column of f's one row labelled with every label
// given (each printed with fmt.Sprint), failing the test on an unknown name.
func value(t testing.TB, f *Figure, column string, labels ...any) float64 {
	t.Helper()
	ls := make([]string, len(labels))
	for i, l := range labels {
		ls[i] = fmt.Sprint(l)
	}
	v, err := f.Value(column, ls...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestValueRejectsUnknownNames: a misspelt column or label, or labels that
// match several rows, is an error, never a zero read as a measurement.
func TestValueRejectsUnknownNames(t *testing.T) {
	f := &Figure{
		Name:    "t",
		Labels:  []string{"load", "scheme"},
		Columns: fixed3("Jain"),
		Rows: []Row{
			{Labels: []string{"30%", "DynaQ"}, Values: []float64{0.9}},
			{Labels: []string{"80%", "DynaQ"}, Values: []float64{0.8}},
		},
	}
	if v, err := f.Value("Jain", "80%", "DynaQ"); err != nil || v != 0.8 {
		t.Errorf("Value(Jain, 80%%, DynaQ) = %v, %v; want 0.8", v, err)
	}
	for _, c := range []struct {
		column string
		labels []string
	}{
		{"jain", []string{"30%", "DynaQ"}}, // unknown column
		{"Jain", []string{"50%", "DynaQ"}}, // unknown label
		{"Jain", []string{"PQL"}},          // unknown label
		{"Jain", []string{"DynaQ"}},        // two rows
	} {
		if v, err := f.Value(c.column, c.labels...); err == nil {
			t.Errorf("Value(%q, %q) = %v, want an error", c.column, c.labels, v)
		}
	}
}

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
		Scheme: MQECN, Sched: SchedDRR, Params: SchemeParams{Weights: []int64{2, 1}},
		Rate: 10 * units.Gbps, Delay: 10 * units.Microsecond, Buffer: units.MB, Queues: 2, MTU: 9000,
		Specs: []QueueSpec{{Class: 0, Flows: 1}}, Duration: units.Second,
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

func TestRunStaticValidation(t *testing.T) {
	if _, err := RunStatic(StaticConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := RunStatic(StaticConfig{
		Specs: []QueueSpec{{Class: 0, Flows: 1}},
	}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := RunStatic(StaticConfig{
		Specs:    []QueueSpec{{Class: 0, Flows: 0}},
		Duration: units.Second,
	}); err == nil {
		t.Error("flowless spec should fail")
	}
}

func TestRunDynamicValidation(t *testing.T) {
	if _, err := RunDynamic(DynamicConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := RunDynamic(DynamicConfig{Flows: 10}); err == nil {
		t.Error("missing workloads should fail")
	}
	if _, err := RunDynamic(DynamicConfig{
		Flows: 10, Workloads: []*workload.CDF{workload.WebSearch()}, Queues: 1,
	}); err == nil {
		t.Error("too few queues should fail")
	}
	if _, err := RunDynamic(DynamicConfig{
		Flows: 10, Workloads: []*workload.CDF{workload.WebSearch()}, Queues: 2,
		Topo: TopoKind("blimp"),
	}); err == nil {
		t.Error("unknown topology should fail")
	}
}

func TestFig1ShowsUnfairness(t *testing.T) {
	r, err := Fig1(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The motivation result: queue 2 (24 flows) monopolizes both buffer
	// and bandwidth despite equal DRR weights.
	share1, share2 := value(t, r, "share", "queue 1"), value(t, r, "share", "queue 2")
	if share2 < share1+0.1 {
		t.Fatalf("queue 2 share %.2f should clearly beat queue 1 %.2f under BestEffort",
			share2, share1)
	}
	occ1, occ2 := value(t, r, "avg occupancy", "queue 1"), value(t, r, "avg occupancy", "queue 2")
	if occ2 < 4*occ1 {
		t.Fatalf("queue 2 occupancy %v should dwarf queue 1 %v",
			units.ByteSize(occ2), units.ByteSize(occ1))
	}
	if !strings.Contains(r.Table(), "queue 1") {
		t.Error("Table() missing rows")
	}
}

func TestFig3DynaQConverges(t *testing.T) {
	r, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	const share, jain = "queue1 share (ideal 0.5)", "Jain index"
	// DynaQ: near-equal sharing of 2 active queues despite 2-vs-16 flows.
	if s := value(t, r, share, DynaQ); s < 0.40 || s > 0.60 {
		t.Fatalf("DynaQ queue-1 share = %.3f, want ≈0.5", s)
	}
	if j := value(t, r, jain, DynaQ); j < 0.95 {
		t.Fatalf("DynaQ Jain = %.3f, want ≥0.95", j)
	}
	// BestEffort: the many-flow queue wins.
	if s := value(t, r, share, BestEffort); s > 0.40 {
		t.Fatalf("BestEffort queue-1 share = %.3f, want the unfair < 0.40", s)
	}
	if value(t, r, jain, BestEffort) >= value(t, r, jain, DynaQ) {
		t.Fatal("BestEffort should be less fair than DynaQ")
	}
	// Fig 4 view: queue evolution traces exist for every scheme.
	for _, row := range r.Rows {
		if len(row.Trace) == 0 {
			t.Fatalf("scheme %s: empty queue trace", row.Labels[0])
		}
	}
	if !strings.Contains(r.Table(), "DynaQ") {
		t.Error("Table() missing DynaQ row")
	}
}

// phases are the Fig. 5/7 rows' phase labels, all four queues active first.
var phases = []string{"4 queues", "3 queues", "2 queues", "1 queue"}

// fctOf reads scheme s's FCT column of a single-load FCT figure.
func fctOf(t testing.TB, r *Figure, column string, s Scheme) units.Duration {
	t.Helper()
	return units.Duration(value(t, r, column, s))
}

// flowCounts reads scheme s's completed and generated flows in a
// single-load FCT figure.
func flowCounts(t testing.TB, r *Figure, s Scheme) (completed, generated int) {
	t.Helper()
	return int(value(t, r, "flows", s)), int(value(t, r, "generated", s))
}

func TestFig5WorkConservationAndFairness(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	full := float64(units.Gbps)
	// DynaQ: fair and work-conserving in every phase.
	for p, phase := range phases {
		if j := value(t, r, "Jain", DynaQ, phase); j < 0.9 {
			t.Errorf("DynaQ phase %d Jain = %.3f, want ≥0.9", p, j)
		}
		if a := value(t, r, "aggregate", DynaQ, phase); a < 0.95*full {
			t.Errorf("DynaQ phase %d aggregate = %.2fGbps, want ≥0.95", p, a/1e9)
		}
	}
	// PQL: loses aggregate throughput when only one queue is active.
	pqlLast := value(t, r, "aggregate", PQL, phases[3])
	dynaqLast := value(t, r, "aggregate", DynaQ, phases[3])
	if pqlLast >= dynaqLast-1e6 {
		t.Errorf("PQL 1-queue aggregate %.2fGbps should trail DynaQ %.2fGbps",
			pqlLast/1e9, dynaqLast/1e9)
	}
	// BestEffort: unfair while all four queues are active.
	if j := value(t, r, "Jain", BestEffort, phases[0]); j > 0.95 {
		t.Errorf("BestEffort 4-queue Jain = %.3f, want the unfair < 0.95", j)
	}
}

func TestFig6WeightedShares(t *testing.T) {
	r, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	ideal := [4]float64{0.4, 0.3, 0.2, 0.1}
	for q, want := range ideal {
		got := value(t, r, fmt.Sprintf("q%d (%g)", q+1, want), DynaQ)
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("DynaQ queue %d share = %.3f, want %.2f±0.05", q+1, got, want)
		}
	}
	if wj := value(t, r, "weighted Jain", DynaQ); wj < 0.98 {
		t.Errorf("DynaQ weighted Jain = %.3f", wj)
	}
	// BestEffort violates the weights: queue 4 (weight 1, most flows)
	// overshoots its 0.1 ideal (the paper measures 0.35).
	if got := value(t, r, "q4 (0.1)", BestEffort); got < 0.2 {
		t.Errorf("BestEffort queue 4 share = %.3f, want > 0.2 (weight violation)", got)
	}
}

func TestFig7MixedTransports(t *testing.T) {
	r, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	// DynaQ with half the queues on CUBIC still shares fairly in every
	// phase — the protocol-independence claim.
	for p, phase := range phases {
		if j := value(t, r, "Jain", DynaQ, phase); j < 0.85 {
			t.Errorf("phase %d Jain = %.3f with mixed transports, want ≥0.85", p, j)
		}
		if a := value(t, r, "aggregate", DynaQ, phase); a < 0.9*float64(units.Gbps) {
			t.Errorf("phase %d aggregate = %.2fGbps with mixed transports", p, a/1e9)
		}
	}
}

func TestFig8SmallFlowWins(t *testing.T) {
	r, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range NonECNSchemes() {
		if done, gen := flowCounts(t, r, s); done != gen {
			t.Fatalf("%s: %d/%d flows completed", s, done, gen)
		}
		if fctOf(t, r, "avg small", s) <= 0 || fctOf(t, r, "avg overall", s) <= 0 {
			t.Fatalf("%s: empty FCT stats", s)
		}
	}
	// The headline FCT claims: DynaQ beats BestEffort on small-flow
	// latency, decisively at the tail.
	dqSmall, beSmall, pqlSmall := fctOf(t, r, "avg small", DynaQ), fctOf(t, r, "avg small", BestEffort), fctOf(t, r, "avg small", PQL)
	if beSmall <= dqSmall {
		t.Errorf("BestEffort small avg %v should exceed DynaQ %v", beSmall, dqSmall)
	}
	if be, dq := fctOf(t, r, "p99 small", BestEffort), fctOf(t, r, "p99 small", DynaQ); be <= dq {
		t.Errorf("BestEffort small p99 %v should exceed DynaQ %v", be, dq)
	}
	if pqlSmall <= dqSmall {
		t.Errorf("PQL small avg %v should exceed DynaQ %v", pqlSmall, dqSmall)
	}
	if !strings.Contains(r.Table(), "DynaQ") {
		t.Error("Table() missing rows")
	}
}

func TestFig9ECNSchemesRun(t *testing.T) {
	r, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{DynaQ, TCN, PMSB, PerQueueECN} {
		if done, gen := flowCounts(t, r, s); done < gen*9/10 {
			t.Errorf("%s: only %d/%d flows completed", s, done, gen)
		}
	}
}

func TestFig10HighSpeedFairness(t *testing.T) {
	r, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "mean Jain", DynaQ); j < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f", j)
	}
	if value(t, r, "mean Jain", BestEffort) >= value(t, r, "mean Jain", DynaQ) {
		t.Error("BestEffort should be less fair than DynaQ at 10Gbps")
	}
	// PQL loses throughput as queues go inactive; DynaQ must keep the
	// minimum aggregate higher.
	if dq, pql := value(t, r, "min aggregate", DynaQ), value(t, r, "min aggregate", PQL); dq <= pql {
		t.Errorf("DynaQ min aggregate %v should exceed PQL %v", units.Rate(dq), units.Rate(pql))
	}
}

func TestFig11JumboFrames(t *testing.T) {
	r, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "mean Jain", DynaQ); j < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f at 100Gbps", j)
	}
	if a := value(t, r, "mean aggregate", DynaQ); a < 0.9*100e9 {
		t.Errorf("DynaQ mean aggregate = %.1fGbps at 100Gbps", a/1e9)
	}
}

func TestFig13LeafSpineCompletes(t *testing.T) {
	r, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range NonECNSchemes() {
		if done, gen := flowCounts(t, r, s); done < gen*9/10 {
			t.Errorf("%s: %d/%d flows completed", s, done, gen)
		}
		if fctOf(t, r, "avg small", s) <= 0 {
			t.Errorf("%s: no small-flow stats", s)
		}
	}
}

func TestCyclesMatchesPaper(t *testing.T) {
	r, err := Cycles(quick)
	if err != nil {
		t.Fatal(err)
	}
	if c := int(value(t, r, "worst-case cycles", 8)); c != 7 {
		t.Errorf("8-queue cycles = %d, want 7 (§IV-A)", c)
	}
	if r.Note == nil {
		t.Fatal("no Trident overhead note")
	}
	if o := r.Note.Value; o < 0.0087 || o > 0.0088 {
		t.Errorf("Trident overhead = %v, want 0.875%%", o)
	}
	if !strings.Contains(r.Table(), "0.88%") {
		t.Errorf("Table() should quote the paper's 0.88%%: %q", r.Table())
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

func TestTableRendering(t *testing.T) {
	f := &Figure{
		Labels:  []string{"a"},
		Columns: []Column{{"b", Count}, {"of", OutOf}, {"c", Fixed3}},
		Rows:    []Row{{Labels: []string{"x"}, Values: []float64{1, 2, 0.5}}},
		Note:    &Note{Column{"note", Percent2}, 0.00875},
	}
	want := "a  b    c    \n-  ---  -----\nx  1/2  0.500\nnote: 0.88%\n"
	if out := f.Table(); out != want {
		t.Errorf("table output:\n%s\nwant:\n%s", out, want)
	}
}

func TestAblationVictimNaiveDropsMore(t *testing.T) {
	r, err := AblationVictim(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	paper, naive := value(t, r, "drops-k", DynaQ), value(t, r, "drops-k", DynaQNaiveVictim)
	if naive <= paper {
		t.Errorf("naive victim policy drops %.1fk ≤ paper policy %.1fk; want more", naive, paper)
	}
	if !strings.Contains(r.Table(), "DynaQ-NaiveVictim") {
		t.Error("Table() missing variant row")
	}
}

func TestAblationWBDPLessStable(t *testing.T) {
	r, err := AblationSatisfaction(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 3 must hold queue 1's share steadier.
	paperSD, wbdpSD := value(t, r, "share-stddev", DynaQ), value(t, r, "share-stddev", DynaQWBDP)
	if wbdpSD <= paperSD {
		t.Errorf("WBDP share stddev %.4f ≤ Eq.3 stddev %.4f; want less stable", wbdpSD, paperSD)
	}
}

func TestAblationTCNDropLosesThroughput(t *testing.T) {
	r, err := AblationDequeueDrop(quick)
	if err != nil {
		t.Fatal(err)
	}
	dynaqAgg := value(t, r, "agg-Gbps", DynaQ)
	dropAgg := value(t, r, "agg-Gbps", TCNDrop)
	if dropAgg >= 0.95*dynaqAgg {
		t.Errorf("TCNDrop aggregate %.3fGbps should trail DynaQ %.3fGbps by >5%%", dropAgg, dynaqAgg)
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

func TestExtMicroburstOrdering(t *testing.T) {
	r, err := ExtMicroburst(quick)
	if err != nil {
		t.Fatal(err)
	}
	dynaq := value(t, r, "burst-drops", DynaQ)
	barber := value(t, r, "burst-drops", BarberQ)
	be := value(t, r, "burst-drops", BestEffort)
	// Eviction and threshold protection both absorb the burst better than
	// plain shared buffering.
	if barber >= be {
		t.Errorf("BarberQ burst drops %.0f should be below BestEffort %.0f", barber, be)
	}
	if dynaq >= be {
		t.Errorf("DynaQ burst drops %.0f should be below BestEffort %.0f", dynaq, be)
	}
	// BarberQ must actually evict.
	evictions := func(s Scheme) int { return int(value(t, r, "evictions", s)) }
	if evictions(BarberQ) == 0 {
		t.Error("BarberQ performed no evictions")
	}
	if evictions(DynaQ) != 0 || evictions(BestEffort) != 0 {
		t.Error("non-evicting schemes reported evictions")
	}
}

func TestExtSharedMemoryHurtsQuietPort(t *testing.T) {
	r, err := ExtSharedMemory(quick)
	if err != nil {
		t.Fatal(err)
	}
	const dt, ded = "DT-shared", "DynaQ-dedicated"
	dtDrops, dedDrops := value(t, r, "quietport-drops", dt), value(t, r, "quietport-drops", ded)
	if dtDrops <= dedDrops {
		t.Errorf("DT-shared quiet-port drops %.0f should exceed dedicated %.0f (§II-C)",
			dtDrops, dedDrops)
	}
	dtFCT, dedFCT := value(t, r, "burst-avgFCT-ms", dt), value(t, r, "burst-avgFCT-ms", ded)
	if dtFCT <= dedFCT {
		t.Errorf("DT-shared burst avg FCT %.2fms should exceed dedicated %.2fms", dtFCT, dedFCT)
	}
}

func TestExtProtocolDependence(t *testing.T) {
	r, err := ExtProtocolDependence(quick)
	if err != nil {
		t.Fatal(err)
	}
	const share = "dctcp-share(0.5)"
	// DynaQ holds the fair split between the DCTCP and CUBIC tenants.
	if got := value(t, r, share, DynaQ); got < 0.40 || got > 0.60 {
		t.Errorf("DynaQ DCTCP-tenant share = %.3f, want ≈0.5", got)
	}
	// Every ECN-based scheme collapses: the non-ECN tenant ignores marks.
	for _, s := range []Scheme{PMSB, MQECN, PerQueueECN} {
		if got := value(t, r, share, s); got > 0.25 {
			t.Errorf("%s DCTCP-tenant share = %.3f, want the collapse < 0.25", s, got)
		}
	}
}

func TestExtTofinoIsolationDegradesGracefully(t *testing.T) {
	r, err := ExtTofino(quick)
	if err != nil {
		t.Fatal(err)
	}
	exact := value(t, r, "Jain", DynaQ)
	stale := value(t, r, "Jain", DynaQTofino)
	be := value(t, r, "Jain", BestEffort)
	// §IV-A's conjecture: stale queue lengths lose some isolation but
	// stay far closer to exact DynaQ than to the unmanaged baseline.
	if stale <= be+0.05 {
		t.Errorf("Tofino Jain %.3f should clearly beat BestEffort %.3f", stale, be)
	}
	if stale > exact {
		t.Errorf("Tofino Jain %.3f should not beat exact DynaQ %.3f", stale, exact)
	}
}

func TestFig2WorkloadShapes(t *testing.T) {
	r, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 workloads", len(r.Rows))
	}
	names := []string{"websearch", "datamining", "cache", "hadoop"}
	const heavyCol = "bytes from >10MB flows"
	// Heavy tails: the mean dwarfs the median for every workload.
	for _, name := range names {
		if mean, p50 := value(t, r, "mean", name), value(t, r, "p50", name); mean < 5*p50 {
			t.Errorf("%s: mean %v not heavy-tailed vs p50 %v", name, units.ByteSize(mean), units.ByteSize(p50))
		}
	}
	// Data mining: ~half the flows are tiny, nearly all bytes are huge
	// (the paper's §V quote).
	if dm := value(t, r, heavyCol, "datamining"); dm < 0.9 {
		t.Errorf("datamining heavy-byte fraction = %.2f, want ≥ 0.9", dm)
	}
	// Web search is the least skewed of the four — the reason the paper
	// calls it "the most challenging workload".
	ws := value(t, r, heavyCol, "websearch")
	for _, name := range names[1:] {
		if heavy := value(t, r, heavyCol, name); heavy > 0 && ws > heavy {
			t.Errorf("websearch skew %.2f should be below %s's %.2f", ws, name, heavy)
		}
	}
}

func TestExtTransportZooFairUnderDynaQ(t *testing.T) {
	r, err := ExtTransportZoo(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "Jain", DynaQ); j < 0.95 {
		t.Errorf("DynaQ zoo Jain = %.3f, want ≥ 0.95 across 4 transports", j)
	}
	if value(t, r, "Jain", BestEffort) >= value(t, r, "Jain", DynaQ) {
		t.Error("BestEffort should be less fair than DynaQ across the zoo")
	}
	// Every transport's share is within a sane band under DynaQ.
	for q, transport := range []string{"reno", "cubic", "dctcp", "timely"} {
		if got := value(t, r, transport, DynaQ); got < 0.15 || got > 0.35 {
			t.Errorf("DynaQ zoo queue %d share = %.3f, want ≈0.25", q, got)
		}
	}
}

func TestExtClosedLoopMatchesPaperDirections(t *testing.T) {
	r, err := ExtClosedLoop(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range NonECNSchemes() {
		if done, gen := flowCounts(t, r, s); done != gen {
			t.Fatalf("%s: %d/%d responses", s, done, gen)
		}
	}
	// The Fig. 8 directions under the closed-loop application: DynaQ wins
	// small flows against both, and large flows against PQL (the
	// work-conservation claim the open-loop model underplays).
	dqSmall := fctOf(t, r, "avg small", DynaQ)
	if be := fctOf(t, r, "avg small", BestEffort); be <= dqSmall {
		t.Errorf("BestEffort small %v should exceed DynaQ %v", be, dqSmall)
	}
	if pql := fctOf(t, r, "avg small", PQL); pql <= dqSmall {
		t.Errorf("PQL small %v should exceed DynaQ %v", pql, dqSmall)
	}
	if pql, dq := fctOf(t, r, "avg large", PQL), fctOf(t, r, "avg large", DynaQ); pql <= dq {
		t.Errorf("PQL large %v should exceed DynaQ %v (closed-loop work conservation)", pql, dq)
	}
}

func TestFig12ExtremeFlowCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 takes ~10s even at quick scale")
	}
	r, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "mean Jain", DynaQ); j < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f under extreme flow counts", j)
	}
	if value(t, r, "mean Jain", BestEffort) >= value(t, r, "mean Jain", DynaQ) {
		t.Error("BestEffort should be far less fair with 2^(k+i) senders")
	}
}

func TestExtDynaQECNMode(t *testing.T) {
	r, err := ExtDynaQECNMode(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{DynaQ, DynaQECN} {
		if got := value(t, r, "q1-share(0.5)", s); got < 0.40 || got > 0.60 {
			t.Errorf("%s queue-1 share = %.3f, want ≈0.5", s, got)
		}
		if got := value(t, r, "agg-Gbps", s); got < 0.95 {
			t.Errorf("%s aggregate = %.3fGbps", s, got)
		}
	}
	// The point of ECN mode: isolation without (most of) the drops.
	if ecn, drop := value(t, r, "drops-k", DynaQECN), value(t, r, "drops-k", DynaQ); ecn >= drop/2 {
		t.Errorf("ECN mode drops %.1fk should be well below drop mode %.1fk", ecn, drop)
	}
	if !DynaQECN.IsECNBased() {
		t.Error("DynaQ-ECN must classify as ECN-based")
	}
}
