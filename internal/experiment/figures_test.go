package experiment_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/figures"
	"dynaq/internal/units"
)

var quick = experiment.Options{Scale: experiment.Quick, Seed: 1}

// value reads the named column of f's one row labelled with every label
// given (each printed with fmt.Sprint), failing the test on an unknown name.
func value(t testing.TB, f *figures.Figure, column string, labels ...any) float64 {
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
	f := &figures.Figure{
		Name:    "t",
		Labels:  []string{"load", "scheme"},
		Columns: []figures.Column{{Name: "Jain", Unit: figures.Fixed3}},
		Rows: []figures.Row{
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

func TestFig1ShowsUnfairness(t *testing.T) {
	r, err := figures.Fig1(quick)
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
	r, err := figures.Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	const share, jain = "queue1 share (ideal 0.5)", "Jain index"
	// DynaQ: near-equal sharing of 2 active queues despite 2-vs-16 flows.
	if s := value(t, r, share, experiment.DynaQ); s < 0.40 || s > 0.60 {
		t.Fatalf("DynaQ queue-1 share = %.3f, want ≈0.5", s)
	}
	if j := value(t, r, jain, experiment.DynaQ); j < 0.95 {
		t.Fatalf("DynaQ Jain = %.3f, want ≥0.95", j)
	}
	// BestEffort: the many-flow queue wins.
	if s := value(t, r, share, experiment.BestEffort); s > 0.40 {
		t.Fatalf("BestEffort queue-1 share = %.3f, want the unfair < 0.40", s)
	}
	if value(t, r, jain, experiment.BestEffort) >= value(t, r, jain, experiment.DynaQ) {
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
func fctOf(t testing.TB, r *figures.Figure, column string, s experiment.Scheme) units.Duration {
	t.Helper()
	return units.Duration(value(t, r, column, s))
}

// flowCounts reads scheme s's completed and generated flows in a
// single-load FCT figure.
func flowCounts(t testing.TB, r *figures.Figure, s experiment.Scheme) (completed, generated int) {
	t.Helper()
	return int(value(t, r, "flows", s)), int(value(t, r, "generated", s))
}

func TestFig5WorkConservationAndFairness(t *testing.T) {
	r, err := figures.Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	full := float64(units.Gbps)
	// DynaQ: fair and work-conserving in every phase.
	for p, phase := range phases {
		if j := value(t, r, "Jain", experiment.DynaQ, phase); j < 0.9 {
			t.Errorf("DynaQ phase %d Jain = %.3f, want ≥0.9", p, j)
		}
		if a := value(t, r, "aggregate", experiment.DynaQ, phase); a < 0.95*full {
			t.Errorf("DynaQ phase %d aggregate = %.2fGbps, want ≥0.95", p, a/1e9)
		}
	}
	// PQL: loses aggregate throughput when only one queue is active.
	pqlLast := value(t, r, "aggregate", experiment.PQL, phases[3])
	dynaqLast := value(t, r, "aggregate", experiment.DynaQ, phases[3])
	if pqlLast >= dynaqLast-1e6 {
		t.Errorf("PQL 1-queue aggregate %.2fGbps should trail DynaQ %.2fGbps",
			pqlLast/1e9, dynaqLast/1e9)
	}
	// BestEffort: unfair while all four queues are active.
	if j := value(t, r, "Jain", experiment.BestEffort, phases[0]); j > 0.95 {
		t.Errorf("BestEffort 4-queue Jain = %.3f, want the unfair < 0.95", j)
	}
}

func TestFig6WeightedShares(t *testing.T) {
	r, err := figures.Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	ideal := [4]float64{0.4, 0.3, 0.2, 0.1}
	for q, want := range ideal {
		got := value(t, r, fmt.Sprintf("q%d (%g)", q+1, want), experiment.DynaQ)
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("DynaQ queue %d share = %.3f, want %.2f±0.05", q+1, got, want)
		}
	}
	if wj := value(t, r, "weighted Jain", experiment.DynaQ); wj < 0.98 {
		t.Errorf("DynaQ weighted Jain = %.3f", wj)
	}
	// BestEffort violates the weights: queue 4 (weight 1, most flows)
	// overshoots its 0.1 ideal (the paper measures 0.35).
	if got := value(t, r, "q4 (0.1)", experiment.BestEffort); got < 0.2 {
		t.Errorf("BestEffort queue 4 share = %.3f, want > 0.2 (weight violation)", got)
	}
}

func TestFig7MixedTransports(t *testing.T) {
	r, err := figures.Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	// DynaQ with half the queues on CUBIC still shares fairly in every
	// phase — the protocol-independence claim.
	for p, phase := range phases {
		if j := value(t, r, "Jain", experiment.DynaQ, phase); j < 0.85 {
			t.Errorf("phase %d Jain = %.3f with mixed transports, want ≥0.85", p, j)
		}
		if a := value(t, r, "aggregate", experiment.DynaQ, phase); a < 0.9*float64(units.Gbps) {
			t.Errorf("phase %d aggregate = %.2fGbps with mixed transports", p, a/1e9)
		}
	}
}

func TestFig8SmallFlowWins(t *testing.T) {
	r, err := figures.Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range experiment.NonECNSchemes() {
		if done, gen := flowCounts(t, r, s); done != gen {
			t.Fatalf("%s: %d/%d flows completed", s, done, gen)
		}
		if fctOf(t, r, "avg small", s) <= 0 || fctOf(t, r, "avg overall", s) <= 0 {
			t.Fatalf("%s: empty FCT stats", s)
		}
	}
	// The headline FCT claims: DynaQ beats BestEffort on small-flow
	// latency, decisively at the tail.
	dqSmall, beSmall, pqlSmall := fctOf(t, r, "avg small", experiment.DynaQ), fctOf(t, r, "avg small", experiment.BestEffort), fctOf(t, r, "avg small", experiment.PQL)
	if beSmall <= dqSmall {
		t.Errorf("BestEffort small avg %v should exceed DynaQ %v", beSmall, dqSmall)
	}
	if be, dq := fctOf(t, r, "p99 small", experiment.BestEffort), fctOf(t, r, "p99 small", experiment.DynaQ); be <= dq {
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
	r, err := figures.Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []experiment.Scheme{experiment.DynaQ, experiment.TCN, experiment.PMSB, experiment.PerQueueECN} {
		if done, gen := flowCounts(t, r, s); done < gen*9/10 {
			t.Errorf("%s: only %d/%d flows completed", s, done, gen)
		}
	}
}

func TestFig10HighSpeedFairness(t *testing.T) {
	r, err := figures.Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "mean Jain", experiment.DynaQ); j < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f", j)
	}
	if value(t, r, "mean Jain", experiment.BestEffort) >= value(t, r, "mean Jain", experiment.DynaQ) {
		t.Error("BestEffort should be less fair than DynaQ at 10Gbps")
	}
	// PQL loses throughput as queues go inactive; DynaQ must keep the
	// minimum aggregate higher.
	if dq, pql := value(t, r, "min aggregate", experiment.DynaQ), value(t, r, "min aggregate", experiment.PQL); dq <= pql {
		t.Errorf("DynaQ min aggregate %v should exceed PQL %v", units.Rate(dq), units.Rate(pql))
	}
}

func TestFig11JumboFrames(t *testing.T) {
	r, err := figures.Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "mean Jain", experiment.DynaQ); j < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f at 100Gbps", j)
	}
	if a := value(t, r, "mean aggregate", experiment.DynaQ); a < 0.9*100e9 {
		t.Errorf("DynaQ mean aggregate = %.1fGbps at 100Gbps", a/1e9)
	}
}

func TestFig13LeafSpineCompletes(t *testing.T) {
	r, err := figures.Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range experiment.NonECNSchemes() {
		if done, gen := flowCounts(t, r, s); done < gen*9/10 {
			t.Errorf("%s: %d/%d flows completed", s, done, gen)
		}
		if fctOf(t, r, "avg small", s) <= 0 {
			t.Errorf("%s: no small-flow stats", s)
		}
	}
}

func TestCyclesMatchesPaper(t *testing.T) {
	r, err := figures.Cycles(quick)
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

func TestTableRendering(t *testing.T) {
	f := &figures.Figure{
		Labels:  []string{"a"},
		Columns: []figures.Column{{Name: "b", Unit: figures.Count}, {Name: "of", Unit: figures.OutOf}, {Name: "c", Unit: figures.Fixed3}},
		Rows:    []figures.Row{{Labels: []string{"x"}, Values: []float64{1, 2, 0.5}}},
		Note:    &figures.Note{Column: figures.Column{Name: "note", Unit: figures.Percent2}, Value: 0.00875},
	}
	want := "a  b    c    \n-  ---  -----\nx  1/2  0.500\nnote: 0.88%\n"
	if out := f.Table(); out != want {
		t.Errorf("table output:\n%s\nwant:\n%s", out, want)
	}
}

func TestAblationVictimNaiveDropsMore(t *testing.T) {
	r, err := figures.AblationVictim(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	paper, naive := value(t, r, "drops-k", experiment.DynaQ), value(t, r, "drops-k", experiment.DynaQNaiveVictim)
	if naive <= paper {
		t.Errorf("naive victim policy drops %.1fk ≤ paper policy %.1fk; want more", naive, paper)
	}
	if !strings.Contains(r.Table(), "DynaQ-NaiveVictim") {
		t.Error("Table() missing variant row")
	}
}

func TestAblationWBDPLessStable(t *testing.T) {
	r, err := figures.AblationSatisfaction(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 3 must hold queue 1's share steadier.
	paperSD, wbdpSD := value(t, r, "share-stddev", experiment.DynaQ), value(t, r, "share-stddev", experiment.DynaQWBDP)
	if wbdpSD <= paperSD {
		t.Errorf("WBDP share stddev %.4f ≤ Eq.3 stddev %.4f; want less stable", wbdpSD, paperSD)
	}
}

func TestAblationTCNDropLosesThroughput(t *testing.T) {
	r, err := figures.AblationDequeueDrop(quick)
	if err != nil {
		t.Fatal(err)
	}
	dynaqAgg := value(t, r, "agg-Gbps", experiment.DynaQ)
	dropAgg := value(t, r, "agg-Gbps", experiment.TCNDrop)
	if dropAgg >= 0.95*dynaqAgg {
		t.Errorf("TCNDrop aggregate %.3fGbps should trail DynaQ %.3fGbps by >5%%", dropAgg, dynaqAgg)
	}
}

func TestExtMicroburstOrdering(t *testing.T) {
	r, err := figures.ExtMicroburst(quick)
	if err != nil {
		t.Fatal(err)
	}
	dynaq := value(t, r, "burst-drops", experiment.DynaQ)
	barber := value(t, r, "burst-drops", experiment.BarberQ)
	be := value(t, r, "burst-drops", experiment.BestEffort)
	// Eviction and threshold protection both absorb the burst better than
	// plain shared buffering.
	if barber >= be {
		t.Errorf("BarberQ burst drops %.0f should be below BestEffort %.0f", barber, be)
	}
	if dynaq >= be {
		t.Errorf("DynaQ burst drops %.0f should be below BestEffort %.0f", dynaq, be)
	}
	// BarberQ must actually evict.
	evictions := func(s experiment.Scheme) int { return int(value(t, r, "evictions", s)) }
	if evictions(experiment.BarberQ) == 0 {
		t.Error("BarberQ performed no evictions")
	}
	if evictions(experiment.DynaQ) != 0 || evictions(experiment.BestEffort) != 0 {
		t.Error("non-evicting schemes reported evictions")
	}
}

func TestExtSharedMemoryHurtsQuietPort(t *testing.T) {
	r, err := figures.ExtSharedMemory(quick)
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
	r, err := figures.ExtProtocolDependence(quick)
	if err != nil {
		t.Fatal(err)
	}
	const share = "dctcp-share(0.5)"
	// DynaQ holds the fair split between the DCTCP and CUBIC tenants.
	if got := value(t, r, share, experiment.DynaQ); got < 0.40 || got > 0.60 {
		t.Errorf("DynaQ DCTCP-tenant share = %.3f, want ≈0.5", got)
	}
	// Every ECN-based scheme collapses: the non-ECN tenant ignores marks.
	for _, s := range []experiment.Scheme{experiment.PMSB, experiment.MQECN, experiment.PerQueueECN} {
		if got := value(t, r, share, s); got > 0.25 {
			t.Errorf("%s DCTCP-tenant share = %.3f, want the collapse < 0.25", s, got)
		}
	}
}

func TestExtTofinoIsolationDegradesGracefully(t *testing.T) {
	r, err := figures.ExtTofino(quick)
	if err != nil {
		t.Fatal(err)
	}
	exact := value(t, r, "Jain", experiment.DynaQ)
	stale := value(t, r, "Jain", experiment.DynaQTofino)
	be := value(t, r, "Jain", experiment.BestEffort)
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
	r, err := figures.Fig2(quick)
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
	r, err := figures.ExtTransportZoo(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "Jain", experiment.DynaQ); j < 0.95 {
		t.Errorf("DynaQ zoo Jain = %.3f, want ≥ 0.95 across 4 transports", j)
	}
	if value(t, r, "Jain", experiment.BestEffort) >= value(t, r, "Jain", experiment.DynaQ) {
		t.Error("BestEffort should be less fair than DynaQ across the zoo")
	}
	// Every transport's share is within a sane band under DynaQ.
	for q, transport := range []string{"reno", "cubic", "dctcp", "timely"} {
		if got := value(t, r, transport, experiment.DynaQ); got < 0.15 || got > 0.35 {
			t.Errorf("DynaQ zoo queue %d share = %.3f, want ≈0.25", q, got)
		}
	}
}

func TestExtClosedLoopMatchesPaperDirections(t *testing.T) {
	r, err := figures.ExtClosedLoop(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range experiment.NonECNSchemes() {
		if done, gen := flowCounts(t, r, s); done != gen {
			t.Fatalf("%s: %d/%d responses", s, done, gen)
		}
	}
	// The Fig. 8 directions under the closed-loop application: DynaQ wins
	// small flows against both, and large flows against PQL (the
	// work-conservation claim the open-loop model underplays).
	dqSmall := fctOf(t, r, "avg small", experiment.DynaQ)
	if be := fctOf(t, r, "avg small", experiment.BestEffort); be <= dqSmall {
		t.Errorf("BestEffort small %v should exceed DynaQ %v", be, dqSmall)
	}
	if pql := fctOf(t, r, "avg small", experiment.PQL); pql <= dqSmall {
		t.Errorf("PQL small %v should exceed DynaQ %v", pql, dqSmall)
	}
	if pql, dq := fctOf(t, r, "avg large", experiment.PQL), fctOf(t, r, "avg large", experiment.DynaQ); pql <= dq {
		t.Errorf("PQL large %v should exceed DynaQ %v (closed-loop work conservation)", pql, dq)
	}
}

func TestFig12ExtremeFlowCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 takes ~10s even at quick scale")
	}
	r, err := figures.Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	if j := value(t, r, "mean Jain", experiment.DynaQ); j < 0.85 {
		t.Errorf("DynaQ mean Jain = %.3f under extreme flow counts", j)
	}
	if value(t, r, "mean Jain", experiment.BestEffort) >= value(t, r, "mean Jain", experiment.DynaQ) {
		t.Error("BestEffort should be far less fair with 2^(k+i) senders")
	}
}

func TestExtDynaQECNMode(t *testing.T) {
	r, err := figures.ExtDynaQECN(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []experiment.Scheme{experiment.DynaQ, experiment.DynaQECN} {
		if got := value(t, r, "q1-share(0.5)", s); got < 0.40 || got > 0.60 {
			t.Errorf("%s queue-1 share = %.3f, want ≈0.5", s, got)
		}
		if got := value(t, r, "agg-Gbps", s); got < 0.95 {
			t.Errorf("%s aggregate = %.3fGbps", s, got)
		}
	}
	// The point of ECN mode: isolation without (most of) the drops.
	if ecn, drop := value(t, r, "drops-k", experiment.DynaQECN), value(t, r, "drops-k", experiment.DynaQ); ecn >= drop/2 {
		t.Errorf("ECN mode drops %.1fk should be well below drop mode %.1fk", ecn, drop)
	}
	if !experiment.DynaQECN.IsECNBased() {
		t.Error("DynaQ-ECN must classify as ECN-based")
	}
}

// TestFCTGridParallelParity runs Fig. 8's grid sequentially and with 8
// workers and demands identical cells in identical order.
func TestFCTGridParallelParity(t *testing.T) {
	seq, err := figures.Fig8(experiment.Options{Scale: experiment.Quick, Seed: 9, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := figures.Fig8(experiment.Options{Scale: experiment.Quick, Seed: 9, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(experiment.NonECNSchemes()) {
		t.Fatalf("cells = %d, want %d", len(seq.Rows), len(experiment.NonECNSchemes()))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("FCT grids differ across worker counts:\n  sequential: %+v\n  parallel:   %+v", seq, par)
	}
}

func TestRunSeedsOnRealExperiment(t *testing.T) {
	// DynaQ's queue-1 share across 3 seeds must be tight around 0.5.
	st, err := experiment.RunSeeds(3, quick, func(o experiment.Options) (float64, error) {
		r, err := figures.Fig3(o)
		if err != nil {
			return 0, err
		}
		return r.Value("queue1 share (ideal 0.5)", string(experiment.DynaQ))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean < 0.42 || st.Mean > 0.58 {
		t.Fatalf("mean share = %v", st.Mean)
	}
	if st.Std > 0.06 {
		t.Fatalf("share std = %v across seeds, want tight", st.Std)
	}
}
