// Package flowfix exercises the determinism-taint analyzer over the flow
// engine's scheduling seam: the arrival time handed to ScheduleArrival
// feeds the simulator's event heap, and through it every artifact byte of a
// flow-engine cell, so wall-clock reads must never reach it. The fixture is
// checked with only determinism-taint enabled and
// (flowfix.Engine).ScheduleArrival configured as the sink, mirroring the
// real (flowsim.Engine).ScheduleArrival entry in DefaultConfig. Lane stands
// in the same way for (sim.Simulator).Lane: the delay a lane is looked up by
// is added to every event time scheduled through it.
package flowfix

import "time"

// Engine is the fixture's stand-in for flowsim.Engine.
type Engine struct{}

// ScheduleArrival is the configured sink: at is a sim-domain time.
func (e *Engine) ScheduleArrival(at int64, size int64) { _ = at }

// Lane is the second configured sink: delay is a sim-domain duration.
func (e *Engine) Lane(delay int64) *Engine { _ = delay; return e }

// clock mirrors the injected wall-clock seam; values drawn through the
// interface are clean because the implementation behind it is the audited
// edge.
type clock interface {
	Now() time.Time
}

// jitter is a pure narrowing helper; taint rides through the parameter.
func jitter(t time.Time) int64 { return t.UnixNano() % 1000 }

// wallClockArrival is the acceptance case: a wall-clock read laundered
// through a helper into the arrival time.
func wallClockArrival(e *Engine) {
	e.ScheduleArrival(jitter(time.Now()), 1500) // want `determinism-taint: .*time\.Now.*reaches determinism sink`
}

// wallClockLane looks a lane up by a delay computed from the wall clock:
// every event put in that lane would fire at a tainted time.
func wallClockLane(e *Engine) *Engine {
	return e.Lane(jitter(time.Now())) // want `determinism-taint: .*time\.Now.*reaches determinism sink`
}

// --- clean cases: none of these may diagnose ------------------------------

// seededArrival derives the arrival from caller-supplied sim time plus a
// deterministic offset — the pattern RunDynamic actually uses.
func seededArrival(e *Engine, base, gap int64) {
	e.ScheduleArrival(base+gap, 1500)
}

// clockSizeOnly reads the wall clock but only the size argument sees it —
// sizes do not reach the event heap. Taint into a non-time argument of the
// sink is still a finding by the analyzer's argument-agnostic rule, so this
// case routes the tainted value away from the call entirely.
func clockSizeOnly(e *Engine, c clock) {
	at := c.Now().UnixNano() // interface draw: clean by the seam rule
	e.ScheduleArrival(at, 1500)
}

// configuredLane is what netsim.NewLink does: the delay comes from the
// topology's configuration.
func configuredLane(e *Engine, delay int64) *Engine { return e.Lane(delay) }
