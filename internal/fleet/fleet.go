// Package fleet holds the building blocks of dynaqd's fault-tolerant worker
// fleet: time-boxed leases renewed by heartbeat, capped exponential retry
// backoff with deterministic seeded jitter, the wire types of the lease API,
// the shared cell-execution path, and the pull-based Worker loop behind
// cmd/dynaqworker.
//
// Failure is the default case: a worker is presumed dead the moment its
// lease expires, and the coordinator's only obligation is to hand the cell
// to someone else. What makes that cheap is the same property that makes
// dynaqd cacheable — a cell's artifact is a pure function of (scenario,
// scheme, seed, build version) — so a re-run after a lost worker is either
// a content-addressed cache hit or a byte-identical recomputation. The
// buffer-isolation analogy from the paper carries up a layer: like DynaQ's
// per-service-queue thresholds, leases and bounded retries let tenants
// share the worker pool without a wedged or malicious neighbor consuming
// it (a cell that keeps failing is quarantined to the dead-letter list
// after a bounded number of attempts, never retried hot).
//
// Nothing in this package reads the wall clock directly: every time-
// dependent decision (lease expiry, backoff readiness, heartbeat cadence)
// flows through an injected Clock, which is what lets the chaos harness
// drive lease expiry and retry timing deterministically and lets dynaqlint
// enforce the rule statically (internal/fleet is a strict-time package —
// time.Sleep/After/NewTimer and friends are banned outside the WallClock
// adapter below).
package fleet

import (
	"sync"
	"time"
)

// Clock is the injected time source for all fleet logic. Production code
// passes WallClock; tests and the chaos harness pass a ManualClock to make
// lease expiry and backoff readiness explicit, stepped events.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that delivers one value once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// WallClock is the production Clock: the host's real time. It is the single
// sanctioned wall-clock read of the fleet layer; everything downstream of
// the interface stays deterministic under an injected clock.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time {
	return time.Now() //dynaqlint:allow determinism WallClock is the one audited edge adapter behind the injected fleet.Clock
}

// After implements Clock.
func (WallClock) After(d time.Duration) <-chan time.Time {
	return time.After(d) //dynaqlint:allow determinism WallClock is the one audited edge adapter behind the injected fleet.Clock
}

// ManualClock is a stepped Clock for tests: Now returns a programmed
// instant and After waiters fire when Advance moves the clock past their
// deadline. An After whose deadline is already in the past fires
// immediately, so loops that re-arm timers cannot miss an Advance that
// happened between arming.
type ManualClock struct {
	mu      sync.Mutex
	now     time.Time      // guarded by mu
	waiters []manualWaiter // guarded by mu
}

type manualWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a ManualClock starting at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements Clock.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
	} else {
		c.waiters = append(c.waiters, manualWaiter{at: at, ch: ch})
	}
	c.mu.Unlock()
	return ch
}

// Advance moves the clock forward by d and fires every waiter whose
// deadline has been reached.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	kept := c.waiters[:0]
	var fire []chan time.Time
	for _, w := range c.waiters {
		if !w.at.After(now) {
			fire = append(fire, w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
	for _, ch := range fire {
		ch <- now
	}
}
