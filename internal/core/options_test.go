package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynaq/internal/units"
)

func TestVictimPolicyString(t *testing.T) {
	for p, want := range map[VictimPolicy]string{
		VictimMaxExtra:     "max-extra",
		VictimMaxThreshold: "max-threshold",
		VictimPolicy(7):    "VictimPolicy(7)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestNewWithOptionsValidation(t *testing.T) {
	if _, err := New(0, []int64{1}); err == nil {
		t.Error("invalid base config should fail")
	}
	if _, err := New(units.KB, []int64{1}, WithVictimPolicy(VictimPolicy(9))); err == nil {
		t.Error("unknown policy should fail")
	}
	if _, err := New(units.KB, []int64{1}, WithWBDPSatisfaction(0)); err == nil {
		t.Error("zero BDP should fail")
	}
}

func TestDefaultPolicyIsMaxExtra(t *testing.T) {
	st := MustNew(units.KB, []int64{1, 1})
	if st.VictimPolicy() != VictimMaxExtra {
		t.Fatalf("default policy = %v", st.VictimPolicy())
	}
}

func TestMaxThresholdPolicyMisVictimizesWeightedQueue(t *testing.T) {
	// §III-B's example: weights 1:2:3. Queue 2 (weight 3) sits exactly at
	// its satisfaction threshold — the minimum it needs for its weighted
	// share — while queue 1 holds surplus. The naive policy still picks
	// queue 2 because its absolute T is largest.
	mk := func(p VictimPolicy) *State {
		st, err := New(60*units.KB, []int64{1, 2, 3}, WithVictimPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		// T = [5000, 25000, 30000]: queue 1 has +5000 extra, queue 2 has
		// none, queue 0 is 5000 under.
		st.t[0], st.t[1], st.t[2] = 5000, 25000, 30000
		return st
	}
	q := qlens{5000, 10000, 30000}

	naive := mk(VictimMaxThreshold)
	res := naive.Process(0, 1500, q)
	if res.Victim != 2 {
		t.Fatalf("naive policy victim = %d, want 2 (largest T)", res.Victim)
	}
	// Queue 2 is active and sits exactly at its satisfaction threshold,
	// so the protection guard fires and the packet drops — even though
	// queue 1 had surplus to donate. The naive rule wastes buffer it
	// could have reassigned (and with queue 2 idle it would strip the
	// weighted queue outright).
	if res.Verdict != Drop {
		t.Fatalf("naive policy verdict = %v, want drop (wasted donation)", res.Verdict)
	}
	naiveIdle := mk(VictimMaxThreshold)
	res = naiveIdle.Process(0, 1500, qlens{5000, 10000, 0})
	if res.Verdict != Adjusted || res.Victim != 2 {
		t.Fatalf("naive policy with idle queue 2: %+v, want adjusted victim 2", res)
	}
	if naiveIdle.Threshold(2) >= naiveIdle.Satisfaction(2) {
		t.Fatal("naive policy should have stripped idle queue 2 below its fair-share buffer")
	}

	paper := mk(VictimMaxExtra)
	res = paper.Process(0, 1500, q)
	if res.Victim != 1 {
		t.Fatalf("paper policy victim = %d, want 1 (largest extra)", res.Victim)
	}
	if paper.Threshold(2) != 30000 {
		t.Fatal("paper policy must leave the satisfied weighted queue alone")
	}
}

func TestWBDPSatisfactionThresholds(t *testing.T) {
	// B = 85KB, BDP = 62.5KB, equal weights over 4 queues:
	// S_i = 15625 instead of 21250.
	st, err := New(85*units.KB, []int64{1, 1, 1, 1},
		WithWBDPSatisfaction(62500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := st.Satisfaction(i); got != 15625 {
			t.Errorf("S_%d = %d, want 15625", i, got)
		}
		if got := st.Threshold(i); got != 21250 {
			t.Errorf("T_%d = %d, want 21250 (thresholds still split B)", i, got)
		}
		// Headroom: every queue starts with positive extra under WBDP.
		if st.Extra(i) <= 0 {
			t.Errorf("queue %d extra = %d, want positive headroom", i, st.Extra(i))
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWBDPAllowsDeeperStealing(t *testing.T) {
	// Under Eq. 3 an active queue at its initial threshold cannot donate;
	// under WBDP satisfaction it can donate down to S_i = WBDP_i — the
	// reduced protection the paper warns about.
	paper := MustNew(85*units.KB, []int64{1, 1, 1, 1})
	q := qlens{21250, 500, 500, 500} // every queue active
	if res := paper.Process(0, 1500, q); res.Verdict != Drop {
		t.Fatalf("Eq.3: verdict = %v, want drop (all victims unsatisfied)", res.Verdict)
	}
	wbdp, err := New(85*units.KB, []int64{1, 1, 1, 1},
		WithWBDPSatisfaction(62500))
	if err != nil {
		t.Fatal(err)
	}
	if res := wbdp.Process(0, 1500, q); res.Verdict != Adjusted {
		t.Fatalf("WBDP: verdict = %v, want adjusted (headroom above WBDP)", res.Verdict)
	}
}

func TestOptionsInvariantsUnderRandomWorkload(t *testing.T) {
	// The ΣT = B and T ≥ 0 invariants must hold under every policy combo.
	f := func(seed int64, naive bool, wbdp bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(6)
		weights := make([]int64, m)
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(4))
		}
		var opts []Option
		if naive {
			opts = append(opts, WithVictimPolicy(VictimMaxThreshold))
		}
		if wbdp {
			opts = append(opts, WithWBDPSatisfaction(units.ByteSize(10000+rng.Intn(50000))))
		}
		st, err := New(units.ByteSize(30000+rng.Intn(100000)), weights, opts...)
		if err != nil {
			return false
		}
		q := make(qlens, m)
		for step := 0; step < 200; step++ {
			p := rng.Intn(m)
			size := units.ByteSize(64 + rng.Intn(8936))
			if res := st.Process(p, size, q); res.Verdict != Drop {
				q[p] += size
			}
			if rng.Intn(2) == 0 {
				i := rng.Intn(m)
				q[i] /= 2
			}
			if st.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTournamentMatchesLinearUnderNaivePolicy(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + int(pRaw%5)
		weights := make([]int64, m)
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(4))
		}
		st, err := New(units.ByteSize(20000+rng.Intn(50000)), weights,
			WithVictimPolicy(VictimMaxThreshold))
		if err != nil {
			return false
		}
		for k := 0; k < 15; k++ {
			a, b := rng.Intn(m), rng.Intn(m)
			amt := units.ByteSize(rng.Intn(1500))
			if a != b && st.t[a] >= amt {
				st.t[a] -= amt
				st.t[b] += amt
			}
		}
		p := rng.Intn(m)
		return st.victimTournament(p) == st.victimLinear(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
