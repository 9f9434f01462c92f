package units

import (
	"math"
	mathbits "math/bits"
	"math/rand"
	"testing"
)

// refBytesIn is BytesIn as it stood before the 64-bit fast path, kept
// verbatim as the oracle: the product and the quotient always in 128 bits.
func refBytesIn(r Rate, d Duration) ByteSize {
	if d <= 0 {
		return 0
	}
	// bytes = r * d / (8 * 1e12), computed in 128-bit arithmetic so Gbps
	// rates over long spans cannot overflow the intermediate product.
	// Saturates at the largest ByteSize if the true count does not fit.
	const div = uint64(8) * uint64(Second)
	hi, lo := mathbits.Mul64(uint64(r), uint64(d))
	if hi >= div {
		return ByteSize(math.MaxInt64)
	}
	q, _ := mathbits.Div64(hi, lo, div)
	if q > math.MaxInt64 {
		return ByteSize(math.MaxInt64)
	}
	return ByteSize(q)
}

// wideCase draws a (rate, duration) pair from one of the regimes BytesIn
// must agree with refBytesIn on: engine-sized operands, products on either
// side of 2^64 (the fast path's edge), products at and past saturation,
// and the sign edges.
func wideCase(rng *rand.Rand) (Rate, Duration) {
	switch rng.Intn(5) {
	case 0: // what the engines pass: up to 400 Gbps over up to a second
		return Rate(rng.Int63n(int64(400 * Gbps))), Duration(rng.Int63n(int64(Second)))
	case 1: // r·d within a few d of k·2^64 for small k, d log-uniform
		d := Duration(5 + rng.Int63n(1<<uint(3+rng.Intn(60))))
		q, _ := mathbits.Div64(uint64(1+rng.Intn(4)), 0, uint64(d))
		return Rate(int64(q) + rng.Int63n(5) - 2), d
	case 2: // r·d near div·2^64, where the quotient stops fitting
		d := Duration(math.MaxInt64 - rng.Int63n(1<<40))
		r := Rate(int64(8*Second)*2 + rng.Int63n(5) - 2)
		return r, d
	case 3: // anything, negative rates and durations included
		return Rate(int64(rng.Uint64())), Duration(int64(rng.Uint64()))
	default: // extremes
		vals := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, int64(8 * Second), int64(8*Second) - 1, 1 << 32}
		return Rate(vals[rng.Intn(len(vals))]), Duration(vals[rng.Intn(len(vals))])
	}
}

func TestBytesInMatchesWide(t *testing.T) {
	// Fixed edges first: the 64-bit product's last value, its first
	// overflow, and the saturation boundary.
	edges := []struct {
		r Rate
		d Duration
	}{
		{Rate(1 << 32), Duration(1<<32 - 1)},         // 2^64 − 2^32: fast path
		{Rate(1 << 32), Duration(1 << 32)},           // exactly 2^64: hi = 1
		{Rate(3), Duration(6148914691236517205)},     // 2^64 − 1
		{Rate(3), Duration(6148914691236517206)},     // 2^64 + 2
		{Rate(8 * Second), Duration(math.MaxInt64)},  // below saturation
		{Rate(16 * Second), Duration(math.MaxInt64)}, // quotient past MaxInt64
		{Rate(math.MaxInt64), Duration(math.MaxInt64)},
		{100 * Gbps, 9 * Second / 10},
		{Rate(-1), Microsecond},
		{Gbps, 0},
		{Gbps, -1},
	}
	for _, c := range edges {
		if got, want := c.r.BytesIn(c.d), refBytesIn(c.r, c.d); got != want {
			t.Fatalf("Rate(%d).BytesIn(%d) = %d, 128-bit body %d", int64(c.r), int64(c.d), got, want)
		}
	}
	rng := rand.New(rand.NewSource(37))
	fast, wide := 0, 0
	for i := 0; i < 200_000; i++ {
		r, d := wideCase(rng)
		if hi, _ := mathbits.Mul64(uint64(r), uint64(d)); hi == 0 {
			fast++
		} else {
			wide++
		}
		if got, want := r.BytesIn(d), refBytesIn(r, d); got != want {
			t.Fatalf("Rate(%d).BytesIn(%d) = %d, 128-bit body %d", int64(r), int64(d), got, want)
		}
	}
	if fast < 10_000 || wide < 10_000 {
		t.Fatalf("draws took the 64-bit path %d times and the 128-bit one %d times; want both well covered", fast, wide)
	}
}

func FuzzBytesInMatchesWide(f *testing.F) {
	f.Add(int64(Gbps), int64(Microsecond))
	f.Add(int64(1<<32), int64(1<<32))
	f.Add(int64(3), int64(6148914691236517206))
	f.Add(int64(16*Second), int64(math.MaxInt64))
	f.Add(int64(-1), int64(1))
	f.Fuzz(func(t *testing.T, r, d int64) {
		if got, want := Rate(r).BytesIn(Duration(d)), refBytesIn(Rate(r), Duration(d)); got != want {
			t.Fatalf("Rate(%d).BytesIn(%d) = %d, 128-bit body %d", r, d, got, want)
		}
	})
}
