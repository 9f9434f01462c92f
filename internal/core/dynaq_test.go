package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dynaq/internal/units"
)

// qlens is a test helper exposing a slice as QueueLens.
type qlens []units.ByteSize

func (q qlens) QueueLen(i int) units.ByteSize { return q[i] }

// victimLinear is the straightforward loop implementation of line 2, the
// cross-check oracle for the tournament.
func (st *State) victimLinear(p int) int {
	best := -1
	for i := range st.t {
		if i == p {
			continue
		}
		if best == -1 || st.victimMetric(i) > st.victimMetric(best) {
			best = i
		}
	}
	return best
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		b       units.ByteSize
		weights []int64
		wantErr bool
	}{
		{name: "valid equal", b: 85 * units.KB, weights: []int64{1, 1, 1, 1}},
		{name: "valid weighted", b: 85 * units.KB, weights: []int64{4, 3, 2, 1}},
		{name: "zero buffer", b: 0, weights: []int64{1}, wantErr: true},
		{name: "negative buffer", b: -1, weights: []int64{1}, wantErr: true},
		{name: "no queues", b: units.KB, wantErr: true},
		{name: "zero weight", b: units.KB, weights: []int64{1, 0}, wantErr: true},
		{name: "negative weight", b: units.KB, weights: []int64{1, -2}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.b, tt.weights)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestInitEqualWeights(t *testing.T) {
	// Eq. (1): T_i = B·w_i/Σw. 85KB over 4 equal queues = 21250 each.
	st := MustNew(85*units.KB, []int64{1, 1, 1, 1})
	for i := 0; i < 4; i++ {
		if got := st.Threshold(i); got != 21250 {
			t.Errorf("T_%d = %d, want 21250", i, got)
		}
		if got := st.Satisfaction(i); got != 21250 {
			t.Errorf("S_%d = %d, want 21250", i, got)
		}
		if got := st.Extra(i); got != 0 {
			t.Errorf("T^ex_%d = %d, want 0", i, got)
		}
		if !st.Satisfied(i) {
			t.Errorf("queue %d should start satisfied", i)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmSurface walks the calls a port makes on a State: build it,
// read its metadata, pass a packet under threshold, adjust at threshold,
// and check the invariants and the §IV-A cycle count.
func TestAlgorithmSurface(t *testing.T) {
	st, err := New(85*units.KB, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumQueues() != 4 || st.Buffer() != 85*units.KB {
		t.Fatalf("M = %d, B = %d; want 4 queues over 85KB", st.NumQueues(), st.Buffer())
	}
	backlog := make(qlens, 4)
	if res := st.Process(0, 1500, backlog); res.Verdict != Pass {
		t.Fatalf("verdict = %v, want pass", res.Verdict)
	}
	backlog[0] = st.Threshold(0)
	if res := st.Process(0, 1500, backlog); res.Verdict != Adjusted {
		t.Fatalf("verdict = %v, want adjusted", res.Verdict)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := CycleCost(8); got != 7 {
		t.Fatalf("CycleCost(8) = %d, want 7", got)
	}
}

func TestInitWeighted(t *testing.T) {
	// Weights 4:3:2:1 over 100KB: 40/30/20/10 KB.
	st := MustNew(100*units.KB, []int64{4, 3, 2, 1})
	want := []units.ByteSize{40000, 30000, 20000, 10000}
	for i, w := range want {
		if got := st.Threshold(i); got != w {
			t.Errorf("T_%d = %d, want %d", i, got, w)
		}
	}
}

func TestInitRoundingPreservesSum(t *testing.T) {
	// 100 bytes over 3 equal queues cannot split evenly; the
	// largest-remainder method must still hand out every byte.
	st := MustNew(100, []int64{1, 1, 1})
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every queue gets 33, one gets the extra byte.
	var got34 int
	for i := 0; i < 3; i++ {
		switch st.Threshold(i) {
		case 33:
		case 34:
			got34++
		default:
			t.Errorf("T_%d = %d, want 33 or 34", i, st.Threshold(i))
		}
	}
	if got34 != 1 {
		t.Errorf("%d queues got 34 bytes, want exactly 1", got34)
	}
}

func TestProcessPassWithinThreshold(t *testing.T) {
	st := MustNew(4000, []int64{1, 1, 1, 1}) // T_i = 1000
	res := st.Process(0, 500, qlens{400, 0, 0, 0})
	if res.Verdict != Pass {
		t.Fatalf("verdict = %v, want pass", res.Verdict)
	}
	if res.Victim != -1 {
		t.Fatalf("victim = %d, want -1", res.Victim)
	}
	if st.Threshold(0) != 1000 {
		t.Fatalf("T_0 changed on pass: %d", st.Threshold(0))
	}
}

func TestProcessExactFitPasses(t *testing.T) {
	// q_p + size == T_p is NOT an exceedance (Algorithm 1 line 1 uses >).
	st := MustNew(4000, []int64{1, 1, 1, 1})
	res := st.Process(0, 1000, qlens{0, 0, 0, 0})
	if res.Verdict != Pass {
		t.Fatalf("verdict = %v, want pass at exact fit", res.Verdict)
	}
}

func TestProcessAdjustStealsFromIdleQueue(t *testing.T) {
	st := MustNew(4000, []int64{1, 1, 1, 1})
	// Queue 0 is at its threshold; queues 1-3 idle. The victim (any idle
	// queue) gives up size bytes even though that puts it below S_v,
	// because q_v == 0 (inactive queues are not protected — §III-B2).
	res := st.Process(0, 500, qlens{1000, 0, 0, 0})
	if res.Verdict != Adjusted {
		t.Fatalf("verdict = %v, want adjusted", res.Verdict)
	}
	if res.Victim != 1 {
		// All extras are 0; tie resolves to the lowest non-p index.
		t.Fatalf("victim = %d, want 1 (tie → lowest index)", res.Victim)
	}
	if st.Threshold(0) != 1500 || st.Threshold(1) != 500 {
		t.Fatalf("T = [%d %d ...], want [1500 500 ...]", st.Threshold(0), st.Threshold(1))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessDropProtectsUnsatisfiedActiveVictim(t *testing.T) {
	st := MustNew(4000, []int64{1, 1, 1, 1})
	// Make every other queue active. Victim would fall below S_v = 1000,
	// and q_v > 0, so the packet must drop without threshold changes.
	res := st.Process(0, 500, qlens{1000, 800, 800, 800})
	if res.Verdict != Drop {
		t.Fatalf("verdict = %v, want drop", res.Verdict)
	}
	for i := 0; i < 4; i++ {
		if st.Threshold(i) != 1000 {
			t.Fatalf("T_%d = %d changed on drop", i, st.Threshold(i))
		}
	}
}

func TestProcessDropWhenVictimThresholdTooSmall(t *testing.T) {
	// Drain queue 1's threshold to below the packet size via repeated
	// adjustments, then verify the T_v < size(P) guard fires (keeps
	// T_i ≥ 0).
	st := MustNew(4000, []int64{1, 1, 1, 1})
	q := qlens{1000, 0, 0, 0}
	for {
		res := st.Process(0, 900, q)
		if res.Verdict == Drop {
			break
		}
		q[0] = st.Threshold(0) // keep queue 0 pinned at its threshold
		if st.Threshold(0) > 4000 {
			t.Fatal("T_0 exceeded B")
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if st.Threshold(i) < 0 {
			t.Fatalf("T_%d went negative", i)
		}
	}
}

func TestVictimPrefersLargestExtra(t *testing.T) {
	// Weights 1:2:3 on 60KB: S = [10000, 20000, 30000].
	st := MustNew(60*units.KB, []int64{1, 2, 3})
	// Manufacture asymmetric extras: steal from queue 2 into queue 0 so
	// that queue 0 has the largest extra, then have queue 1 overflow; its
	// victim must be queue 0 even though queue 2's absolute T is larger.
	st.t[0] = 25000 // extra +15000
	st.t[1] = 20000 // extra 0
	st.t[2] = 15000 // extra -15000 (unsatisfied)
	res := st.Process(1, 1500, qlens{0, 20000, 5000})
	if res.Verdict != Adjusted {
		t.Fatalf("verdict = %v, want adjusted", res.Verdict)
	}
	if res.Victim != 0 {
		t.Fatalf("victim = %d, want 0 (largest extra, not largest T)", res.Victim)
	}
}

func TestWeightedVictimExample(t *testing.T) {
	// §III-B "Victim Queue Selection" example: weights 1:2:3. A
	// largest-threshold policy would victimize queue 2 (index 2) even when
	// it only holds its minimum fair-share buffer; the extra-based policy
	// must not.
	st := MustNew(60*units.KB, []int64{1, 2, 3})
	// Queue 2 exactly at satisfaction (extra 0), queue 1 fat (+5000),
	// queue 0 slim (-5000).
	st.t[0] = 5000
	st.t[1] = 25000
	st.t[2] = 30000
	res := st.Process(0, 1500, qlens{5000, 10000, 30000})
	if res.Verdict != Adjusted || res.Victim != 1 {
		t.Fatalf("got %+v, want adjusted with victim 1", res)
	}
}

func TestSingleQueueDropsAtBuffer(t *testing.T) {
	st := MustNew(1000, []int64{1})
	if res := st.Process(0, 200, qlens{900}); res.Verdict != Drop {
		t.Fatalf("verdict = %v, want drop (no victim exists)", res.Verdict)
	}
	if res := st.Process(0, 100, qlens{900}); res.Verdict != Pass {
		t.Fatalf("verdict = %v, want pass at exact fit", res.Verdict)
	}
}

func TestProcessPanicsOnBadInput(t *testing.T) {
	st := MustNew(1000, []int64{1, 1})
	for _, fn := range []func(){
		func() { st.Process(-1, 100, qlens{0, 0}) },
		func() { st.Process(2, 100, qlens{0, 0}) },
		func() { st.Process(0, 0, qlens{0, 0}) },
		func() { st.Process(0, -5, qlens{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic on invalid Process input")
				}
			}()
			fn()
		}()
	}
}

func TestSetBufferReinitializes(t *testing.T) {
	st := MustNew(85*units.KB, []int64{1, 1, 1, 1})
	// Distort thresholds.
	st.Process(0, 1500, qlens{st.Threshold(0), 0, 0, 0})
	if err := st.SetBuffer(192 * units.KB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := st.Threshold(i); got != 48*units.KB {
			t.Errorf("T_%d = %d after resize, want 48KB", i, got)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.SetBuffer(0); err == nil {
		t.Error("SetBuffer(0) should fail")
	}
}

func TestTournamentMatchesLinearSearch(t *testing.T) {
	// Property: for random threshold configurations and any excluded
	// index, the loop-free tournament finds the same victim as the linear
	// reference (including tie-breaking to the lowest index).
	f := func(seed int64, mRaw uint8, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + int(mRaw)%9 // 2..10 queues, covers non-power-of-two widths
		weights := make([]int64, m)
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(8))
		}
		st := MustNew(units.ByteSize(10000+rng.Intn(100000)), weights)
		// Random threshold redistribution preserving the sum.
		for k := 0; k < 20; k++ {
			a, b := rng.Intn(m), rng.Intn(m)
			if a == b {
				continue
			}
			amt := units.ByteSize(rng.Intn(2000))
			if st.t[a] >= amt {
				st.t[a] -= amt
				st.t[b] += amt
			}
		}
		p := int(pRaw) % m
		return st.victimTournament(p) == st.victimLinear(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	// Property: Σ T_i == B and T_i ≥ 0 after any sequence of Process
	// calls with any queue occupancy pattern.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(7)
		weights := make([]int64, m)
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(4))
		}
		b := units.ByteSize(20000 + rng.Intn(200000))
		st := MustNew(b, weights)
		q := make(qlens, m)
		for step := 0; step < 300; step++ {
			p := rng.Intn(m)
			size := units.ByteSize(64 + rng.Intn(8936))
			res := st.Process(p, size, q)
			if res.Verdict != Drop {
				// Emulate enqueue/dequeue churn.
				q[p] += size
			}
			if rng.Intn(2) == 0 {
				i := rng.Intn(m)
				q[i] -= q[i] / 2
			}
			if err := st.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDropNeverMutatesThresholds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(7)
		weights := make([]int64, m)
		for i := range weights {
			weights[i] = 1
		}
		st := MustNew(units.ByteSize(10000+rng.Intn(50000)), weights)
		q := make(qlens, m)
		for i := range q {
			q[i] = units.ByteSize(rng.Intn(int(st.Threshold(i)) + 1))
		}
		before := append([]units.ByteSize(nil), st.t...)
		res := st.Process(rng.Intn(m), units.ByteSize(64+rng.Intn(8936)), q)
		if res.Verdict == Drop {
			for i := range before {
				if st.t[i] != before[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdjustedExactlySwapsSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(7)
		weights := make([]int64, m)
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(3))
		}
		st := MustNew(units.ByteSize(50000+rng.Intn(100000)), weights)
		q := make(qlens, m)
		p := rng.Intn(m)
		q[p] = st.Threshold(p) // pin p at its threshold to force search
		size := units.ByteSize(64 + rng.Intn(1436))
		tp, before := st.Threshold(p), append([]units.ByteSize(nil), st.t...)
		res := st.Process(p, size, q)
		if res.Verdict != Adjusted {
			return true // drop paths covered elsewhere
		}
		if st.Threshold(p) != tp+size {
			return false
		}
		if st.Threshold(res.Victim) != before[res.Victim]-size {
			return false
		}
		// No third queue touched.
		for i := range before {
			if i != p && i != res.Victim && st.t[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerdictString(t *testing.T) {
	tests := []struct {
		v    Verdict
		want string
	}{
		{Pass, "pass"}, {Adjusted, "adjusted"}, {Drop, "drop"}, {Verdict(9), "Verdict(9)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Verdict(%d).String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(0, []int64{1})
}

// BenchmarkProcessPass measures the fast path (arrival under threshold):
// line 1 only. The backlogs are boxed into a QueueLens once, outside the
// loop, so allocs/op counts Process alone; CI requires it to be zero.
func BenchmarkProcessPass(b *testing.B) {
	st := MustNew(192*units.KB, []int64{1, 1, 1, 1, 1, 1, 1, 1})
	var q QueueLens = make(qlens, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Process(i%8, 1500, q)
	}
}

// BenchmarkProcessAdjust measures the software cost of one DynaQ decision
// on an 8-queue port with queue 0 pinned at its threshold (the §IV-A
// hardware analysis counts 7 clock cycles for the same operation).
func BenchmarkProcessAdjust(b *testing.B) {
	st := MustNew(192*units.KB, []int64{1, 1, 1, 1, 1, 1, 1, 1})
	backlog := make(qlens, 8)
	var q QueueLens = backlog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backlog[0] = st.Threshold(0) // keep queue 0 pinned at threshold
		st.Process(0, 1500, q)
	}
}

func TestStateString(t *testing.T) {
	st := MustNew(4000, []int64{1, 1})
	got := st.String()
	for _, want := range []string{"B=4000", "q0:T=2000,S=2000,ex=+0", "ΣT=4000"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}
