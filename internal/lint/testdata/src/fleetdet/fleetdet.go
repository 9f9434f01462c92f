// Package fleetdet exercises the strict-time extension of the determinism
// analyzer: in a package listed in Config.StrictTimePackages, the stdlib
// timer primitives are banned alongside wall-clock reads — lease-expiry and
// retry-backoff timing must flow through an injected clock — while plain
// time.Duration arithmetic and an explicitly-suppressed edge adapter stay
// clean.
package fleetdet

import "time"

// clock mimics the injected fleet.Clock; calls through it are the
// sanctioned pattern and must NOT be flagged.
type clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

func sleepRetry(d time.Duration) {
	time.Sleep(d) // want `determinism: raw timer time\.Sleep in strict-time package fleetdet`
}

func rawAfter(d time.Duration) <-chan time.Time {
	return time.After(d) // want `determinism: raw timer time\.After in strict-time package fleetdet`
}

func rawTick(d time.Duration) <-chan time.Time {
	return time.Tick(d) // want `determinism: raw timer time\.Tick in strict-time package fleetdet`
}

func rawTimer(d time.Duration) *time.Timer {
	return time.NewTimer(d) // want `determinism: raw timer time\.NewTimer in strict-time package fleetdet`
}

func rawTicker(d time.Duration) *time.Ticker {
	return time.NewTicker(d) // want `determinism: raw timer time\.NewTicker in strict-time package fleetdet`
}

func rawAfterFunc(d time.Duration, f func()) *time.Timer {
	return time.AfterFunc(d, f) // want `determinism: raw timer time\.AfterFunc in strict-time package fleetdet`
}

// wallRead shows the base rule still applies in strict packages.
func wallRead() time.Time {
	return time.Now() // want `determinism: wall-clock read time\.Now`
}

// injected waits through the clock interface; clean.
func injected(c clock, d time.Duration) time.Time {
	<-c.After(d)
	return c.Now()
}

// arithmetic shows plain duration math is untouched by the strict rule.
func arithmetic(ttl time.Duration) time.Duration {
	return ttl/3 + 5*time.Millisecond
}

// adapter is the sanctioned escape hatch: a suppressed raw timer, mirroring
// fleet.WallClock.After.
func adapter(d time.Duration) <-chan time.Time {
	return time.After(d) //dynaqlint:allow determinism fixture: the one audited edge adapter behind the injected clock
}
