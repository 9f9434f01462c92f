package core

import (
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// naiveDynaQ is DynaQ written from the paper's description alone, with none
// of State's structure: T_i = B·w_i/Σw (Eq. 1), the rounding residue handed
// out one byte each to the largest remainders, S_i = B·w_i/Σw (Eq. 3) or the
// weighted BDP under the ablation, and Algorithm 1 with a linear victim scan
// in place of the tournament.
type naiveDynaQ struct {
	b      units.ByteSize
	w      []int64
	bdp    units.ByteSize // 0: Eq. 3
	policy VictimPolicy
	t, s   []units.ByteSize
}

func newNaiveDynaQ(b units.ByteSize, w []int64, policy VictimPolicy, bdp units.ByteSize) *naiveDynaQ {
	n := &naiveDynaQ{b: b, w: w, bdp: bdp, policy: policy}
	n.init()
	return n
}

// init sets every T_i and S_i from B, as at start-up and on a resize.
func (n *naiveDynaQ) init() {
	var sum int64
	for _, w := range n.w {
		sum += w
	}
	n.t = make([]units.ByteSize, len(n.w))
	n.s = make([]units.ByteSize, len(n.w))
	left := n.b
	for i, w := range n.w {
		n.t[i] = units.ByteSize(int64(n.b) * w / sum)
		left -= n.t[i]
	}
	// Queues by remainder, largest first, lower index first among equals.
	order := make([]int, len(n.w))
	for i := range order {
		order[i] = i
	}
	rem := func(i int) int64 { return int64(n.b) * n.w[i] % sum }
	slices.SortStableFunc(order, func(a, b int) int { return int(rem(b) - rem(a)) })
	for _, i := range order[:left] {
		n.t[i]++
	}
	for i, w := range n.w {
		n.s[i] = n.t[i]
		if n.bdp > 0 {
			n.s[i] = units.ByteSize(int64(n.bdp) * w / sum)
		}
	}
}

// process is Algorithm 1 for a packet of size bytes arriving for queue p
// while queue i holds q[i] bytes.
func (n *naiveDynaQ) process(p int, size units.ByteSize, q []units.ByteSize) Result {
	if q[p]+size <= n.t[p] {
		return Result{Verdict: Pass, Victim: -1}
	}
	metric := func(i int) units.ByteSize {
		if n.policy == VictimMaxThreshold {
			return n.t[i]
		}
		return n.t[i] - n.s[i]
	}
	v := -1
	for i := range n.t {
		if i != p && (v < 0 || metric(i) > metric(v)) {
			v = i
		}
	}
	if v < 0 {
		return Result{Verdict: Drop, Victim: -1}
	}
	if n.t[v] < size || (q[v] > 0 && n.t[v]-size < n.s[v]) {
		return Result{Verdict: Drop, Victim: v}
	}
	n.t[v] -= size
	n.t[p] += size
	return Result{Verdict: Adjusted, Victim: v}
}

// naiveOutcome tallies what a script exercised.
type naiveOutcome struct {
	verdicts [3]int
	resizes  int
}

var naiveSizes = []units.ByteSize{64, 500, 1000, 1500, 4000, 9000}

// processAgainstNaive interprets script. Its first five bytes choose the
// queue count (1 to 8), the weights, the buffer, the victim policy and
// whether S_i is the weighted BDP. Then two bytes make a step: an arrival for
// a queue (Process against the oracle: verdict, victim and every T_i and
// S_i), a departure from one, or a resize of the buffer.
func processAgainstNaive(t testing.TB, script []byte) (out naiveOutcome) {
	if len(script) < 5 {
		return
	}
	m := 1 + int(script[0])%8
	w := make([]int64, m)
	for i := range w {
		w[i] = 1 + int64(script[1]>>(i%4*2))&3
	}
	buffers := []units.ByteSize{3000, 20 * units.KB, 85 * units.KB, 192 * units.KB}
	b := buffers[int(script[2])%len(buffers)]
	policy := VictimPolicy(script[3] % 2)
	var bdp units.ByteSize
	var opts []Option
	if script[4]%3 == 0 {
		bdp = units.ByteSize(1+int(script[4])%7) * 5000
		opts = append(opts, WithWBDPSatisfaction(bdp))
	}
	st, err := New(b, w, append(opts, WithVictimPolicy(policy))...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newNaiveDynaQ(b, w, policy, bdp)
	q := make([]units.ByteSize, m)
	check := func(step int, what string) {
		for i := range q {
			if st.Threshold(i) != oracle.t[i] || st.Satisfaction(i) != oracle.s[i] {
				t.Fatalf("step %d (%s): %v, oracle T=%v S=%v", step, what, st, oracle.t, oracle.s)
			}
		}
	}
	check(-1, "init")
	script = script[5:]
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], int(script[step+1])
		p := arg % m
		switch {
		case op < 200:
			size := naiveSizes[int(op)%len(naiveSizes)]
			got, want := st.Process(p, size, qlens(q)), oracle.process(p, size, q)
			if got != want {
				t.Fatalf("step %d: Process(%d, %d) = %+v, oracle %+v", step/2, p, size, got, want)
			}
			check(step/2, "arrival")
			out.verdicts[got.Verdict]++
			// Enqueue as the port's post-check would, within the buffer.
			if got.Verdict != Drop && q[p]+size <= st.Threshold(p) {
				q[p] += size
			}
		case op < 240:
			q[p] = max(0, q[p]-naiveSizes[arg%len(naiveSizes)]*units.ByteSize(1+arg%3))
		default:
			nb := buffers[arg%len(buffers)]
			if err := st.SetBuffer(nb); err != nil {
				t.Fatal(err)
			}
			oracle.b = nb
			oracle.init()
			check(step/2, "resize")
			out.resizes++
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step/2, err)
		}
	}
	return out
}

func TestProcessMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// By victim policy, then by satisfaction rule (weighted BDP, Eq. 3).
	var tally [2][2]naiveOutcome
	for trial := 0; trial < 1200; trial++ {
		script := make([]byte, 5+2*400)
		rng.Read(script)
		script[3] = byte(trial % 2)
		script[4] = byte(trial / 2 % 2) // 0: WBDP, 1: Eq. 3
		if trial%5 == 0 {
			script[0] = 0 // one queue: no victim at all
		}
		out := processAgainstNaive(t, script)
		k := &tally[script[3]%2][script[4]]
		for v := range k.verdicts {
			k.verdicts[v] += out.verdicts[v]
		}
		k.resizes += out.resizes
	}
	for policy := range tally {
		for eq3, k := range tally[policy] {
			if k.verdicts[Pass] < 1000 || k.verdicts[Adjusted] < 1000 || k.verdicts[Drop] < 1000 ||
				k.resizes < 100 {
				t.Errorf("policy %v, Eq. 3 %d: %+v: the scripts miss a case", VictimPolicy(policy), eq3, k)
			}
		}
	}
}

func FuzzProcessMatchesNaive(f *testing.F) {
	f.Add([]byte{3, 0x1b, 2, 0, 1, 1, 0, 3, 1, 3, 2, 5, 0, 210, 1, 5, 0, 250, 2, 5, 1})
	f.Add([]byte{7, 0xe4, 0, 1, 3, 5, 0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5, 5, 6, 5, 7, 5, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 3, 0, 3, 0, 3, 0, 245, 3, 3, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		processAgainstNaive(t, script)
	})
}

// TestNaiveInitTiesToLowerIndex pins the oracle's own rounding on a tie
// before it is trusted as State's reference: B = 10 over three equal
// weights leaves one residue byte, and it goes to queue 0.
func TestNaiveInitTiesToLowerIndex(t *testing.T) {
	n := newNaiveDynaQ(10, []int64{1, 1, 1}, VictimMaxExtra, 0)
	if !slices.Equal(n.t, []units.ByteSize{4, 3, 3}) {
		t.Fatalf("oracle T = %v, want [4 3 3]", n.t)
	}
}
