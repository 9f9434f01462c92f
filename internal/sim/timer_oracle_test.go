package sim

import "dynaq/internal/units"

// Timer and the ticker behind Every, as they stood before a timer became
// its pending event and Every's ticks became AfterCall events: the oracle
// the program in oracle_test.go holds Rearm and Every to, on the same
// Simulator, down to the heap's high-water mark and the free list's reuse.
// The bodies are verbatim; the ticker and its Every are renamed, since the
// package has its own.

// Timer is a single-shot re-armable timer, the building block for TCP
// retransmission timeouts and periodic samplers. The firing callback is
// bound once at construction, so Reset/Stop cycles never allocate.
type Timer struct {
	sim    *Simulator
	ev     EventRef
	fn     func()
	fireFn func() // t.fire bound once; a fresh method value per Reset would allocate
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func (s *Simulator) NewTimer(fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire d from now, replacing any pending firing.
func (t *Timer) Reset(d units.Duration) {
	t.sim.Cancel(t.ev)
	t.ev = t.sim.After(d, t.fireFn)
}

// Stop disarms the timer if armed.
func (t *Timer) Stop() {
	t.sim.Cancel(t.ev)
	t.ev = EventRef{}
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.ev.Pending() }

func (t *Timer) fire() {
	t.ev = EventRef{}
	t.fn()
}

// timerTicker carries the state for Every so each tick re-arms through one
// precomputed callback instead of allocating a closure chain.
type timerTicker struct {
	sim     *Simulator
	period  units.Duration
	fn      func()
	tickFn  func()
	ev      EventRef
	stopped bool
}

func (tk *timerTicker) tick() {
	if tk.stopped {
		return
	}
	tk.fn()
	if tk.stopped { // fn itself may have called stop
		return
	}
	tk.ev = tk.sim.After(tk.period, tk.tickFn)
}

func (tk *timerTicker) stop() {
	tk.stopped = true
	tk.sim.Cancel(tk.ev)
	tk.ev = EventRef{}
}

// timerEvery schedules fn to run now+d, now+2d, ... until the returned stop
// function is called. It is used by periodic throughput samplers. The
// ticker allocates once; individual ticks are allocation-free.
func (s *Simulator) timerEvery(d units.Duration, fn func()) (stop func()) {
	if d <= 0 {
		panic("sim: Every requires a positive period")
	}
	tk := &timerTicker{sim: s, period: d, fn: fn}
	tk.tickFn = tk.tick
	tk.ev = s.After(d, tk.tickFn)
	return tk.stop
}

// rearmTimer is a timer the way a model keeps one now: the pending event
// itself, armed by Rearm on a package-level function that clears the handle
// before the callback runs.
type rearmTimer struct {
	s  *Simulator
	ev EventRef
	fn func()
}

func fireRearmTimer(arg any) {
	t := arg.(*rearmTimer)
	t.ev = EventRef{}
	t.fn()
}

func (t *rearmTimer) Reset(d units.Duration) { t.s.Rearm(&t.ev, d, fireRearmTimer, t) }
func (t *rearmTimer) Stop()                  { t.s.Cancel(t.ev) }
func (t *rearmTimer) Armed() bool            { return t.ev.Pending() }
