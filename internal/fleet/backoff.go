package fleet

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// Backoff computes the delay before a failed cell may be leased again:
// capped exponential growth with deterministic seeded jitter. The jitter
// generator is seeded from the cell's content address and the attempt
// number, so a given (cell, attempt) always waits the same amount — retry
// timing is replayable, which is what lets the chaos harness assert exact
// requeue schedules and keeps two coordinators over the same history in
// lockstep. Jitter still does its usual job of spreading simultaneous
// failures apart, because different cells hash to different delays.
type Backoff struct {
	// Base is the attempt-1 delay window. 0 selects 250ms.
	Base time.Duration
	// Cap bounds the window growth. 0 selects 10s.
	Cap time.Duration
}

// Delay returns the wait before attempt+1 may start, given that `attempt`
// runs of the cell identified by key have failed (attempt ≥ 1). The delay
// is drawn uniformly from [window/2, window], window = min(Cap,
// Base·2^(attempt-1)).
func (b Backoff) Delay(key string, attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	cap := b.Cap
	if cap <= 0 {
		cap = 10 * time.Second
	}
	if base > cap {
		base = cap
	}
	window := base
	for i := 1; i < attempt && window < cap; i++ {
		if window > cap/2 { // doubling would pass the cap, or overflow
			window = cap
			break
		}
		window *= 2
	}
	rng := rand.New(rand.NewSource(jitterSeed(key, attempt)))
	half := int64(window / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

// jitterSeed derives a deterministic jitter seed from the cell identity and
// attempt number.
func jitterSeed(key string, attempt int) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64()) ^ int64(attempt)<<32
}
