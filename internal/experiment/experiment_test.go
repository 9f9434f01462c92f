package experiment

import (
	"strings"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/sim"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

var quick = Options{Scale: Quick, Seed: 1}

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
	if r.Share[1] < r.Share[0]+0.1 {
		t.Fatalf("queue 2 share %.2f should clearly beat queue 1 %.2f under BestEffort",
			r.Share[1], r.Share[0])
	}
	if r.AvgOccupancy[1] < 4*r.AvgOccupancy[0] {
		t.Fatalf("queue 2 occupancy %v should dwarf queue 1 %v",
			r.AvgOccupancy[1], r.AvgOccupancy[0])
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
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	// DynaQ: near-equal sharing of 2 active queues despite 2-vs-16 flows.
	if s := r.Share1[idx[DynaQ]]; s < 0.40 || s > 0.60 {
		t.Fatalf("DynaQ queue-1 share = %.3f, want ≈0.5", s)
	}
	if j := r.JainIdx[idx[DynaQ]]; j < 0.95 {
		t.Fatalf("DynaQ Jain = %.3f, want ≥0.95", j)
	}
	// BestEffort: the many-flow queue wins.
	if s := r.Share1[idx[BestEffort]]; s > 0.40 {
		t.Fatalf("BestEffort queue-1 share = %.3f, want the unfair < 0.40", s)
	}
	if r.JainIdx[idx[BestEffort]] >= r.JainIdx[idx[DynaQ]] {
		t.Fatal("BestEffort should be less fair than DynaQ")
	}
	// Fig 4 view: queue evolution traces exist for every scheme.
	for i, tr := range r.Traces {
		if len(tr) == 0 {
			t.Fatalf("scheme %s: empty queue trace", r.Schemes[i])
		}
	}
	if !strings.Contains(r.Table(), "DynaQ") {
		t.Error("Table() missing DynaQ row")
	}
}

func TestFig5WorkConservationAndFairness(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	full := float64(units.Gbps)
	// DynaQ: fair and work-conserving in every phase.
	for p := 0; p < 4; p++ {
		if j := r.JainPerPhase[idx[DynaQ]][p]; j < 0.9 {
			t.Errorf("DynaQ phase %d Jain = %.3f, want ≥0.9", p, j)
		}
		if a := float64(r.AggPerPhase[idx[DynaQ]][p]); a < 0.95*full {
			t.Errorf("DynaQ phase %d aggregate = %.2fGbps, want ≥0.95", p, a/1e9)
		}
	}
	// PQL: loses aggregate throughput when only one queue is active.
	pqlLast := float64(r.AggPerPhase[idx[PQL]][3])
	dynaqLast := float64(r.AggPerPhase[idx[DynaQ]][3])
	if pqlLast >= dynaqLast-1e6 {
		t.Errorf("PQL 1-queue aggregate %.2fGbps should trail DynaQ %.2fGbps",
			pqlLast/1e9, dynaqLast/1e9)
	}
	// BestEffort: unfair while all four queues are active.
	if j := r.JainPerPhase[idx[BestEffort]][0]; j > 0.95 {
		t.Errorf("BestEffort 4-queue Jain = %.3f, want the unfair < 0.95", j)
	}
}

func TestFig6WeightedShares(t *testing.T) {
	r, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	ideal := [4]float64{0.4, 0.3, 0.2, 0.1}
	for q, want := range ideal {
		got := r.Shares[idx[DynaQ]][q]
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("DynaQ queue %d share = %.3f, want %.2f±0.05", q+1, got, want)
		}
	}
	if r.WJain[idx[DynaQ]] < 0.98 {
		t.Errorf("DynaQ weighted Jain = %.3f", r.WJain[idx[DynaQ]])
	}
	// BestEffort violates the weights: queue 4 (weight 1, most flows)
	// overshoots its 0.1 ideal (the paper measures 0.35).
	if got := r.Shares[idx[BestEffort]][3]; got < 0.2 {
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
	for p := 0; p < 4; p++ {
		if j := r.JainPerPhase[0][p]; j < 0.85 {
			t.Errorf("phase %d Jain = %.3f with mixed transports, want ≥0.85", p, j)
		}
		if a := float64(r.AggPerPhase[0][p]); a < 0.9*float64(units.Gbps) {
			t.Errorf("phase %d aggregate = %.2fGbps with mixed transports", p, a/1e9)
		}
	}
}

func TestFig8SmallFlowWins(t *testing.T) {
	r, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	load := r.Loads()[0]
	dq, be, pql := r.Cell(DynaQ, load), r.Cell(BestEffort, load), r.Cell(PQL, load)
	if dq == nil || be == nil || pql == nil {
		t.Fatal("missing cells")
	}
	for _, c := range []*FCTStats{dq, be, pql} {
		if c.Completed != c.Generated {
			t.Fatalf("%s: %d/%d flows completed", c.Scheme, c.Completed, c.Generated)
		}
		if c.AvgSmall <= 0 || c.AvgOverall <= 0 {
			t.Fatalf("%s: empty FCT stats", c.Scheme)
		}
	}
	// The headline FCT claims: DynaQ beats BestEffort on small-flow
	// latency, decisively at the tail.
	if be.AvgSmall <= dq.AvgSmall {
		t.Errorf("BestEffort small avg %v should exceed DynaQ %v", be.AvgSmall, dq.AvgSmall)
	}
	if be.P99Small <= dq.P99Small {
		t.Errorf("BestEffort small p99 %v should exceed DynaQ %v", be.P99Small, dq.P99Small)
	}
	if pql.AvgSmall <= dq.AvgSmall {
		t.Errorf("PQL small avg %v should exceed DynaQ %v", pql.AvgSmall, dq.AvgSmall)
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
	load := r.Loads()[0]
	for _, s := range []Scheme{DynaQ, TCN, PMSB, PerQueueECN} {
		c := r.Cell(s, load)
		if c == nil {
			t.Fatalf("missing cell for %s", s)
		}
		if c.Completed < c.Generated*9/10 {
			t.Errorf("%s: only %d/%d flows completed", s, c.Completed, c.Generated)
		}
	}
}

func TestFig10HighSpeedFairness(t *testing.T) {
	r, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	if r.MeanJain[idx[DynaQ]] < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f", r.MeanJain[idx[DynaQ]])
	}
	if r.MeanJain[idx[BestEffort]] >= r.MeanJain[idx[DynaQ]] {
		t.Error("BestEffort should be less fair than DynaQ at 10Gbps")
	}
	// PQL loses throughput as queues go inactive; DynaQ must keep the
	// minimum aggregate higher.
	if r.MinAgg[idx[DynaQ]] <= r.MinAgg[idx[PQL]] {
		t.Errorf("DynaQ min aggregate %v should exceed PQL %v",
			r.MinAgg[idx[DynaQ]], r.MinAgg[idx[PQL]])
	}
}

func TestFig11JumboFrames(t *testing.T) {
	r, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	if r.MeanJain[idx[DynaQ]] < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f at 100Gbps", r.MeanJain[idx[DynaQ]])
	}
	if a := float64(r.MeanAgg[idx[DynaQ]]); a < 0.9*100e9 {
		t.Errorf("DynaQ mean aggregate = %.1fGbps at 100Gbps", a/1e9)
	}
}

func TestFig13LeafSpineCompletes(t *testing.T) {
	r, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	load := r.Loads()[0]
	for _, s := range NonECNSchemes() {
		c := r.Cell(s, load)
		if c == nil {
			t.Fatalf("missing cell for %s", s)
		}
		if c.Completed < c.Generated*9/10 {
			t.Errorf("%s: %d/%d flows completed", s, c.Completed, c.Generated)
		}
		if c.AvgSmall <= 0 {
			t.Errorf("%s: no small-flow stats", s)
		}
	}
}

func TestCyclesMatchesPaper(t *testing.T) {
	r := Cycles()
	found := false
	for i, m := range r.QueueCounts {
		if m == 8 {
			found = true
			if r.Cycles[i] != 7 {
				t.Errorf("8-queue cycles = %d, want 7 (§IV-A)", r.Cycles[i])
			}
		}
	}
	if !found {
		t.Fatal("8-queue row missing")
	}
	if r.TridentOverhead < 0.0087 || r.TridentOverhead > 0.0088 {
		t.Errorf("Trident overhead = %v, want 0.875%%", r.TridentOverhead)
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
	var tb table
	tb.add("a", "b")
	tb.addf("%d\t%s", 1, "x")
	out := tb.String()
	if !strings.Contains(out, "a  b") || !strings.Contains(out, "1  x") {
		t.Errorf("table output:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("missing header separator")
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
	dropsCol := len(r.Labels) - 1
	paper, naive := r.Rows[0][dropsCol], r.Rows[1][dropsCol]
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
	// Column 1 is the share standard deviation: Eq. 3 must be steadier.
	paperSD, wbdpSD := r.Rows[0][1], r.Rows[1][1]
	if wbdpSD <= paperSD {
		t.Errorf("WBDP share stddev %.4f ≤ Eq.3 stddev %.4f; want less stable", wbdpSD, paperSD)
	}
}

func TestAblationTCNDropLosesThroughput(t *testing.T) {
	r, err := AblationDequeueDrop(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	dynaqAgg := r.Rows[idx[DynaQ]][0]
	dropAgg := r.Rows[idx[TCNDrop]][0]
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
	p := SchemeParams{Rate: testbedRate, BaseRTT: fabric.Star.BaseRTT(testbedDelay), Weights: equalWeights(4)}
	for _, s := range []Scheme{BarberQ, DynaQTofino, DynaQNaiveVictim, DynaQWBDP} {
		if _, err := testbedRack(sim.New(), 2, 4, 85*units.KB, Factories(s, SchedDRR, p, testbedMTU)); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestExtMicroburstOrdering(t *testing.T) {
	r, err := ExtMicroburst(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	const dropsCol = 2
	dynaq := r.Rows[idx[DynaQ]][dropsCol]
	barber := r.Rows[idx[BarberQ]][dropsCol]
	be := r.Rows[idx[BestEffort]][dropsCol]
	// Eviction and threshold protection both absorb the burst better than
	// plain shared buffering.
	if barber >= be {
		t.Errorf("BarberQ burst drops %.0f should be below BestEffort %.0f", barber, be)
	}
	if dynaq >= be {
		t.Errorf("DynaQ burst drops %.0f should be below BestEffort %.0f", dynaq, be)
	}
	// BarberQ must actually evict.
	if r.Rows[idx[BarberQ]][3] == 0 {
		t.Error("BarberQ performed no evictions")
	}
	if r.Rows[idx[DynaQ]][3] != 0 || r.Rows[idx[BestEffort]][3] != 0 {
		t.Error("non-evicting schemes reported evictions")
	}
}

func TestExtSharedMemoryHurtsQuietPort(t *testing.T) {
	r, err := ExtSharedMemory(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 = DT-shared, row 1 = DynaQ-dedicated.
	dtDrops, dedDrops := r.Rows[0][2], r.Rows[1][2]
	if dtDrops <= dedDrops {
		t.Errorf("DT-shared quiet-port drops %.0f should exceed dedicated %.0f (§II-C)",
			dtDrops, dedDrops)
	}
	dtFCT, dedFCT := r.Rows[0][0], r.Rows[1][0]
	if dtFCT <= dedFCT {
		t.Errorf("DT-shared burst avg FCT %.2fms should exceed dedicated %.2fms", dtFCT, dedFCT)
	}
}

func TestExtProtocolDependence(t *testing.T) {
	r, err := ExtProtocolDependence(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	// DynaQ holds the fair split between the DCTCP and CUBIC tenants.
	if got := r.Rows[idx[DynaQ]][0]; got < 0.40 || got > 0.60 {
		t.Errorf("DynaQ DCTCP-tenant share = %.3f, want ≈0.5", got)
	}
	// Every ECN-based scheme collapses: the non-ECN tenant ignores marks.
	for _, s := range []Scheme{PMSB, MQECN, PerQueueECN} {
		if got := r.Rows[idx[s]][0]; got > 0.25 {
			t.Errorf("%s DCTCP-tenant share = %.3f, want the collapse < 0.25", s, got)
		}
	}
}

func TestExtTofinoIsolationDegradesGracefully(t *testing.T) {
	r, err := ExtTofino(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	exact := r.Rows[idx[DynaQ]][1]       // Jain
	stale := r.Rows[idx[DynaQTofino]][1] // Jain
	be := r.Rows[idx[BestEffort]][1]
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
	byName := map[string]WorkloadRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	// Heavy tails: the mean dwarfs the median for every workload.
	for name, row := range byName {
		if row.Mean < 5*row.P50 {
			t.Errorf("%s: mean %v not heavy-tailed vs p50 %v", name, row.Mean, row.P50)
		}
	}
	// Data mining: ~half the flows are tiny, nearly all bytes are huge
	// (the paper's §V quote).
	dm := byName["datamining"]
	if dm.HeavyByteFrac < 0.9 {
		t.Errorf("datamining heavy-byte fraction = %.2f, want ≥ 0.9", dm.HeavyByteFrac)
	}
	// Web search is the least skewed of the four — the reason the paper
	// calls it "the most challenging workload".
	ws := byName["websearch"]
	for name, row := range byName {
		if name == "websearch" {
			continue
		}
		if row.HeavyByteFrac != 0 && ws.HeavyByteFrac > row.HeavyByteFrac {
			t.Errorf("websearch skew %.2f should be below %s's %.2f",
				ws.HeavyByteFrac, name, row.HeavyByteFrac)
		}
	}
}

func TestExtTransportZooFairUnderDynaQ(t *testing.T) {
	r, err := ExtTransportZoo(quick)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	const jainCol = 4
	if j := r.Rows[idx[DynaQ]][jainCol]; j < 0.95 {
		t.Errorf("DynaQ zoo Jain = %.3f, want ≥ 0.95 across 4 transports", j)
	}
	if j := r.Rows[idx[BestEffort]][jainCol]; j >= r.Rows[idx[DynaQ]][jainCol] {
		t.Error("BestEffort should be less fair than DynaQ across the zoo")
	}
	// Every transport's share is within a sane band under DynaQ.
	for q := 0; q < 4; q++ {
		if got := r.Rows[idx[DynaQ]][q]; got < 0.15 || got > 0.35 {
			t.Errorf("DynaQ zoo queue %d share = %.3f, want ≈0.25", q, got)
		}
	}
}

func TestExtClosedLoopMatchesPaperDirections(t *testing.T) {
	r, err := ExtClosedLoop(quick)
	if err != nil {
		t.Fatal(err)
	}
	load := r.Loads()[0]
	dq, be, pql := r.Cell(DynaQ, load), r.Cell(BestEffort, load), r.Cell(PQL, load)
	if dq == nil || be == nil || pql == nil {
		t.Fatal("missing cells")
	}
	for _, c := range []*FCTStats{dq, be, pql} {
		if c.Completed != c.Generated {
			t.Fatalf("%s: %d/%d responses", c.Scheme, c.Completed, c.Generated)
		}
	}
	// The Fig. 8 directions under the closed-loop application: DynaQ wins
	// small flows against both, and large flows against PQL (the
	// work-conservation claim the open-loop model underplays).
	if be.AvgSmall <= dq.AvgSmall {
		t.Errorf("BestEffort small %v should exceed DynaQ %v", be.AvgSmall, dq.AvgSmall)
	}
	if pql.AvgSmall <= dq.AvgSmall {
		t.Errorf("PQL small %v should exceed DynaQ %v", pql.AvgSmall, dq.AvgSmall)
	}
	if pql.AvgLarge <= dq.AvgLarge {
		t.Errorf("PQL large %v should exceed DynaQ %v (closed-loop work conservation)",
			pql.AvgLarge, dq.AvgLarge)
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
	idx := map[Scheme]int{}
	for i, s := range r.Schemes {
		idx[s] = i
	}
	if r.MeanJain[idx[DynaQ]] < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f under extreme flow counts", r.MeanJain[idx[DynaQ]])
	}
	if r.MeanJain[idx[BestEffort]] >= r.MeanJain[idx[DynaQ]] {
		t.Error("BestEffort should be far less fair with 2^(k+i) senders")
	}
}

func TestExtDynaQECNMode(t *testing.T) {
	r, err := ExtDynaQECNMode(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 = drop mode, row 1 = ECN mode.
	for i, s := range r.Schemes {
		if got := r.Rows[i][0]; got < 0.40 || got > 0.60 {
			t.Errorf("%s queue-1 share = %.3f, want ≈0.5", s, got)
		}
		if got := r.Rows[i][2]; got < 0.95 {
			t.Errorf("%s aggregate = %.3fGbps", s, got)
		}
	}
	// The point of ECN mode: isolation without (most of) the drops.
	if r.Rows[1][3] >= r.Rows[0][3]/2 {
		t.Errorf("ECN mode drops %.1fk should be well below drop mode %.1fk",
			r.Rows[1][3], r.Rows[0][3])
	}
	if !DynaQECN.IsECNBased() {
		t.Error("DynaQ-ECN must classify as ECN-based")
	}
}
