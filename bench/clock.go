package main

import "time"

// now is the benchmark's single wall-clock read. Every host-time number the
// benchmark reports is a difference of two now() values; simulated time never
// passes through here.
func now() time.Time {
	return time.Now() //dynaqlint:allow determinism the benchmark measures host time; this helper is its one audited wall-clock read and nothing it returns reaches a simulation input or artifact
}

// since is time.Since routed through now.
func since(t time.Time) time.Duration { return now().Sub(t) }

// wallClock adapts now to the trace.Clock seam.
type wallClock struct{}

func (wallClock) Now() time.Time { return now() }
