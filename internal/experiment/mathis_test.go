package experiment_test

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/faults"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// The Mathis band: Mathis, Semke, Mahdavi and Ott (CCR 1997) put a Reno
// flow's throughput at (MSS/RTT)·C/√p and report C between 0.87 (periodic
// loss, delayed ACKs) and 1.31 (random loss, an ACK per segment). The band
// is fixed from the paper, not from our runs.
const mathisCMin, mathisCMax = 0.87, 1.31

// mathisCell is one long-lived Reno flow across a static star whose
// bottleneck egress tor:1 drops each packet with probability p. At 10 Gbps
// and 1 ms the link carries 833 packets per RTT and the 10 MB buffer holds
// 6 666, against a Mathis window of (1.31/√p) packets, 131 at p = 1e-4, so
// once past slow start neither the link nor the buffer binds.
func mathisCell(p, durationS float64) scenario.Document {
	return scenario.Document{
		Kind: "static", Scheme: "BestEffort", Sched: "drr",
		RateGbps: 10, BufferB: 10_000_000, Queues: 1, RTTUs: 1000, MinRTOMs: 10,
		DurationS: durationS, SampleMs: 100, Seed: 1,
		Specs:  []scenario.Spec{{Class: 0, Flows: 1, Ctrl: "reno"}},
		Faults: []faults.Spec{{Kind: faults.KindLoss, Target: "tor:1", AtS: 0, Rate: p}},
	}
}

const (
	mathisWarmS = 5.0  // slow start, its overshoot into the buffer and the RTO it ends in
	mathisRunS  = 20.0 // 15 s measured: ≥ 190 loss events at p = 1e-4
)

// mathisCounts runs the cell for durationS and returns its result with the
// run's registry.
func mathisCounts(t *testing.T, p, durationS float64) (*experiment.StaticResult, *telemetry.Registry) {
	t.Helper()
	body, err := json.Marshal(mathisCell(p, durationS))
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.Load(body)
	if err != nil {
		t.Fatal(err)
	}
	run, err := telemetry.NewRun(t.TempDir(), telemetry.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTelemetry(run)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	return res.Static, run.Registry()
}

// padhye is Padhye, Firoiu, Towsley and Kurose's (SIGCOMM 1998) Reno
// throughput in packets per second with timeouts: b packets per ACK, RTO t0.
func padhye(p, rtt, t0, b float64) float64 {
	return 1 / (rtt*math.Sqrt(2*b*p/3) + t0*math.Min(1, 3*math.Sqrt(3*b*p/8))*p*(1+32*p*p))
}

// TestRenoFollowsMathis holds one Reno flow's throughput under random loss to
// the Mathis band. The throughput is the bottleneck's post-warm-up mean in
// full-size packets per second, which counts the p-sized share of
// retransmissions too. Where the measured window saw a timeout, the
// prediction is Padhye's, with the cell's min_rto_ms as the RTO, and the
// band applies to C_eff = √(3/2)·G/B(p), which is C when no timeout
// weighs in. Counters after the warm-up are a full run's minus a warm-up
// run's: the simulation is deterministic, so the shorter run is the longer
// one's prefix. A miss is recorded in ROADMAP item 18 and pinned here, so a
// change that closes or opens one shows.
func TestRenoFollowsMathis(t *testing.T) {
	const rtt, t0, mtu = 1e-3, 10e-3, 1500
	for _, c := range []struct {
		p    float64
		slow bool
		miss bool // recorded in ROADMAP item 18
	}{
		{1e-4, true, false},
		{3e-4, true, true}, // C 1.320: the band's edge is this case's C
		{1e-3, false, false},
		{3e-3, false, true}, // Padhye C_eff 1.334: its timeout share is Reno's, not ours
	} {
		t.Run(fmt.Sprint(c.p), func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("millions of packets")
			}
			warm, warmReg := mathisCounts(t, c.p, mathisWarmS)
			res, reg := mathisCounts(t, c.p, mathisRunS)
			counter := func(reg *telemetry.Registry, id string) int64 {
				v, ok := reg.Value(id)
				if !ok {
					t.Fatalf("no series %s", id)
				}
				return v
			}
			timeouts := counter(reg, "transport_timeouts_total") - counter(warmReg, "transport_timeouts_total")
			if drops := res.Drops - warm.Drops; drops != 0 {
				t.Errorf("the buffer dropped %d packets after the warm-up: it binds", drops)
			}
			var sum units.Rate
			var n int
			for _, s := range res.Samples {
				if s.At <= units.Time(mathisWarmS*float64(units.Second)) {
					continue
				}
				if s.Aggregate > 5*units.Gbps {
					t.Errorf("%v at %v is over half the 10 Gbps link: it binds", s.Aggregate, s.At)
				}
				sum += s.Aggregate
				n++
			}
			pps := float64(sum) / float64(n) / (8 * mtu)
			mathis := pps * rtt * math.Sqrt(c.p)
			ceff, model := mathis, "Mathis"
			if timeouts > 0 {
				ceff, model = math.Sqrt(1.5)*pps/padhye(c.p, rtt, t0, 1), "Padhye"
			}
			t.Logf("p=%g: %.0f packets/s, Mathis C %.3f, %d timeouts after warm-up, %s C_eff %.3f",
				c.p, pps, mathis, timeouts, model, ceff)
			if in := ceff >= mathisCMin && ceff <= mathisCMax; in == c.miss {
				t.Errorf("p=%g: %s C_eff %.3f against the band [%.2f, %.2f]: in band %v, recorded miss %v",
					c.p, model, ceff, mathisCMin, mathisCMax, in, c.miss)
			}
		})
	}
}
