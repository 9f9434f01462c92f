package core

import (
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// parentState holds what reinit read and wrote before the weights, T and S
// shared one backing array: parentReinit is that version's body verbatim
// (receiver renamed), with its fracs scratch allocated on every call.
type parentState struct {
	b               units.ByteSize
	weights         []int64
	sumW            int64
	t               []units.ByteSize
	s               []units.ByteSize
	satisfactionBDP units.ByteSize
}

func (st *parentState) parentReinit() {
	type frac struct {
		idx int
		rem int64
	}
	fracs := make([]frac, len(st.weights))
	var assigned units.ByteSize
	for i, w := range st.weights {
		share := int64(st.b) * w / st.sumW
		st.t[i] = units.ByteSize(share)
		st.s[i] = units.ByteSize(share)
		assigned += units.ByteSize(share)
		fracs[i] = frac{idx: i, rem: int64(st.b) * w % st.sumW}
	}
	// Largest-remainder method: hand out the residue one byte at a time,
	// biggest fractional part first (ties by lower index, which a stable
	// selection over the natural order gives us).
	for left := st.b - assigned; left > 0; left-- {
		best := -1
		for j := range fracs {
			if fracs[j].rem < 0 {
				continue
			}
			if best == -1 || fracs[j].rem > fracs[best].rem {
				best = j
			}
		}
		st.t[fracs[best].idx]++
		st.s[fracs[best].idx]++
		fracs[best].rem = -1
	}
	if st.satisfactionBDP > 0 {
		// WBDP ablation: satisfaction thresholds use the weighted BDP
		// while dropping thresholds still split the whole buffer.
		for i, w := range st.weights {
			st.s[i] = units.ByteSize(int64(st.satisfactionBDP) * w / st.sumW)
		}
	}
}

func newParentState(b units.ByteSize, weights []int64, bdp units.ByteSize) *parentState {
	st := &parentState{b: b, weights: weights, t: make([]units.ByteSize, len(weights)),
		s: make([]units.ByteSize, len(weights)), satisfactionBDP: bdp}
	for _, w := range weights {
		st.sumW += w
	}
	st.parentReinit()
	return st
}

// TestInitMatchesParent holds T and S to the parent's reinit, bit for bit,
// after New, after SetBuffer and under the WBDP option, over weight vectors
// whose remainders tie, differ and vanish, and buffers down to a byte per
// queue, where the residue is largest.
func TestInitMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	buf := func(n int) units.ByteSize {
		switch rng.Intn(3) {
		case 0:
			return units.ByteSize(n + rng.Intn(4*n))
		case 1:
			return units.ByteSize(1 + rng.Intn(64*1024))
		default:
			return units.ByteSize(1+rng.Intn(1<<20)) * units.KB
		}
	}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(64)
		w := make([]int64, n)
		top := []int64{1, 3, 8, 1000, 1 << 20}[rng.Intn(5)]
		for i := range w {
			w[i] = 1 + rng.Int63n(top)
		}
		b := buf(n)
		var bdp units.ByteSize
		var opts []Option
		if rng.Intn(3) == 0 {
			bdp = buf(n)
			opts = append(opts, WithWBDPSatisfaction(bdp))
		}
		st, err := New(b, w, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := newParentState(b, w, bdp)
		check := func(when string) {
			t.Helper()
			if !slices.Equal(st.t, want.t) || !slices.Equal(st.s, want.s) {
				t.Fatalf("trial %d, %s, B=%d w=%v bdp=%d:\nT=%v S=%v\nparent T=%v S=%v", trial, when, want.b, w, bdp, st.t, st.s, want.t, want.s)
			}
		}
		check("New")
		for k := 0; k < 3; k++ {
			want.b = buf(n)
			if err := st.SetBuffer(want.b); err != nil {
				t.Fatal(err)
			}
			want.parentReinit()
			check("SetBuffer")
		}
	}
}

// TestSetBufferAllocatesNothing: a resize re-runs Eq. 1's largest-remainder
// split in place, with no scratch.
func TestSetBufferAllocatesNothing(t *testing.T) {
	w := make([]int64, 64)
	for i := range w {
		w[i] = int64(1 + i%7)
	}
	st := MustNew(192*units.KB, w)
	b := units.ByteSize(0)
	if n := testing.AllocsPerRun(100, func() {
		b = b%(1<<20) + 4099
		if err := st.SetBuffer(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SetBuffer allocates %.1f times per call, want 0", n)
	}
}
