// Package sim provides the discrete-event simulation engine that drives the
// whole reproduction: a four-ary event heap specialized to *Event, a virtual
// clock, re-armable timers, and a free list that recycles Event objects so
// that scheduling and running an event allocate nothing once the free list
// has grown to the heap's depth.
//
// The engine is intentionally single-goroutine: every experiment in the
// paper is a deterministic function of its seed, which makes results
// reproducible. Parallelism lives one layer up, in internal/experiment's
// RunTrials, where independent (scheme, load, seed) cells each own a
// private Simulator.
package sim

import (
	"fmt"

	"dynaq/internal/units"
)

// Event is a callback scheduled to run at a fixed simulated time. Event
// objects are owned and recycled by the Simulator's free list; callers hold
// EventRef handles, never bare *Event.
type Event struct {
	when units.Time
	seq  uint64 // tie-break: FIFO order among same-time events
	gen  uint64 // bumped on every recycle so stale refs can be detected
	idx  int    // heap index; -1 while popped, canceled, or on the free list
	fn   func()
	fnA  func(any)
	arg  any
}

// EventRef is a cancellation handle for a scheduled event. The zero value is
// inert: canceling it is a no-op. Because Event objects are recycled, a ref
// held past its event's firing or cancellation may point at an Event that
// now carries a different callback; the generation counter detects this and
// makes such stale refs harmless.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the referenced event is still scheduled.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.idx >= 0
}

// Time returns the simulated time the referenced event fires at, or zero
// when the event is no longer pending.
func (r EventRef) Time() units.Time {
	if !r.Pending() {
		return 0
	}
	return r.ev.when
}

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now units.Time
	seq uint64
	// lastWhen and lastSeq are the key of the event Step ran last, the point
	// in the total order that AtCallSeq may not schedule behind.
	lastWhen units.Time
	lastSeq  uint64
	heap     []*Event // four-ary min-heap ordered by (when, seq)
	free     []*Event // recycled Event objects awaiting reuse
	nrun     uint64
	reused   uint64
	maxHeap  int
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Processed reports how many events have been executed.
func (s *Simulator) Processed() uint64 { return s.nrun }

// Pending reports how many events are scheduled but not yet run.
func (s *Simulator) Pending() int { return len(s.heap) }

// MaxPending reports the event heap's high-water mark — the telemetry
// layer's sizing signal for how much simultaneity a scenario creates.
func (s *Simulator) MaxPending() int { return s.maxHeap }

// PoolReuse reports how many event schedules were served from the free list
// instead of the allocator. At steady state this tracks Processed: almost
// every new event reuses the object of one that already fired.
func (s *Simulator) PoolReuse() uint64 { return s.reused }

// less orders events by time, then insertion sequence (FIFO among ties).
func less(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// A four-ary heap does ~half the levels of a binary heap per operation and
// keeps siblings on one cache line; children of i live at 4i+1..4i+4 and
// the parent of i at (i-1)/4. Both sift directions are specialized to
// *Event so there is no interface dispatch and no `any` boxing.

func (s *Simulator) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		pi := (i - 1) >> 2
		p := s.heap[pi]
		if !less(e, p) {
			break
		}
		s.heap[i] = p
		p.idx = i
		i = pi
	}
	s.heap[i] = e
	e.idx = i
}

func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !less(s.heap[m], e) {
			break
		}
		s.heap[i] = s.heap[m]
		s.heap[i].idx = i
		i = m
	}
	s.heap[i] = e
	e.idx = i
}

func (s *Simulator) push(e *Event) {
	s.heap = append(s.heap, e)
	e.idx = len(s.heap) - 1
	s.siftUp(e.idx)
	if len(s.heap) > s.maxHeap {
		s.maxHeap = len(s.heap)
	}
}

// popMin removes and returns the earliest event.
func (s *Simulator) popMin() *Event {
	e := s.heap[0]
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if n > 0 {
		s.heap[0] = last
		last.idx = 0
		s.siftDown(0)
	}
	e.idx = -1
	return e
}

// removeAt removes the event at heap index i. The replacement comes from
// the tail, so it may need to move either direction.
func (s *Simulator) removeAt(i int) *Event {
	e := s.heap[i]
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if i < n {
		s.heap[i] = last
		last.idx = i
		s.siftDown(i)
		s.siftUp(last.idx)
	}
	e.idx = -1
	return e
}

// alloc takes an Event from the free list, falling back to the allocator
// only while the pool is still warming up.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.reused++
		return e
	}
	return &Event{}
}

// release returns an Event to the free list. The generation bump invalidates
// every outstanding EventRef to it, and clearing the callback fields drops
// references the GC should not be forced to keep alive.
func (s *Simulator) release(e *Event) {
	e.gen++
	e.idx = -1
	e.fn = nil
	e.fnA = nil
	e.arg = nil
	s.free = append(s.free, e)
}

func (s *Simulator) schedule(t units.Time, seq uint64, fn func(), fnA func(any), arg any) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.when = t
	e.seq = seq
	e.fn = fn
	e.fnA = fnA
	e.arg = arg
	s.push(e)
	return EventRef{ev: e, gen: e.gen}
}

// ReserveSeq takes the tie-break sequence number a schedule call made now
// would take, without scheduling anything. A caller that knows now that it
// will want an event later — a link holding a FIFO of arrivals behind one
// pending event — reserves at the moment it would have scheduled and hands
// the number to AtCallSeq when the event's turn comes. The event then sorts
// among same-time events exactly as if it had been scheduled at reservation.
func (s *Simulator) ReserveSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// AtCallSeq is AtCall with a sequence number from ReserveSeq. The key
// (t, seq) must still lie ahead of the event being run: scheduling behind it
// would run the callback after events it was reserved to precede, so that
// panics like scheduling in the past does.
func (s *Simulator) AtCallSeq(t units.Time, seq uint64, fn func(any), arg any) EventRef {
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: sequence number %d was never reserved", seq))
	}
	if t == s.lastWhen && seq < s.lastSeq {
		panic(fmt.Sprintf("sim: scheduling reserved event (%v, %d) behind the running one (%v, %d)", t, seq, s.lastWhen, s.lastSeq))
	}
	return s.schedule(t, seq, nil, fn, arg)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug, and silently reordering time would
// corrupt every queue measurement downstream.
func (s *Simulator) At(t units.Time, fn func()) EventRef {
	return s.schedule(t, s.ReserveSeq(), fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d units.Duration, fn func()) EventRef {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AtCall schedules fn(arg) at absolute time t. With a package-level fn and a
// pooled arg this schedules without allocating, where At would force a
// closure per call; it is the hot-path form used by netsim's packet events.
func (s *Simulator) AtCall(t units.Time, fn func(any), arg any) EventRef {
	return s.schedule(t, s.ReserveSeq(), nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time.
func (s *Simulator) AfterCall(d units.Duration, fn func(any), arg any) EventRef {
	if d < 0 {
		d = 0
	}
	return s.AtCall(s.now.Add(d), fn, arg)
}

// Cancel removes a pending event. Canceling a zero ref, an already-run or
// already-canceled event, or a ref whose Event has been recycled for a
// different callback is a no-op.
func (s *Simulator) Cancel(ref EventRef) {
	e := ref.ev
	if e == nil || e.gen != ref.gen || e.idx < 0 {
		return
	}
	s.removeAt(e.idx)
	s.release(e)
}

// Step runs the single earliest pending event. It reports false when no
// events remain. The Event object is released to the free list before the
// callback runs, so a callback that schedules exactly one follow-up event —
// the dominant pattern — reuses the very object that just fired.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.popMin()
	s.now = e.when
	s.lastWhen, s.lastSeq = e.when, e.seq
	s.nrun++
	fn, fnA, arg := e.fn, e.fnA, e.arg
	s.release(e)
	if fn != nil {
		fn()
	} else {
		fnA(arg)
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (s *Simulator) RunUntil(deadline units.Time) {
	for len(s.heap) > 0 && s.heap[0].when <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

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

// ticker carries the state for Every so each tick re-arms through one
// precomputed callback instead of allocating a closure chain.
type ticker struct {
	sim     *Simulator
	period  units.Duration
	fn      func()
	tickFn  func()
	ev      EventRef
	stopped bool
}

func (tk *ticker) tick() {
	if tk.stopped {
		return
	}
	tk.fn()
	tk.ev = tk.sim.After(tk.period, tk.tickFn)
}

func (tk *ticker) stop() {
	tk.stopped = true
	tk.sim.Cancel(tk.ev)
	tk.ev = EventRef{}
}

// Every schedules fn to run now+d, now+2d, ... until the returned stop
// function is called. It is used by periodic throughput samplers. The
// ticker allocates once; individual ticks are allocation-free.
func (s *Simulator) Every(d units.Duration, fn func()) (stop func()) {
	if d <= 0 {
		panic("sim: Every requires a positive period")
	}
	tk := &ticker{sim: s, period: d, fn: fn}
	tk.tickFn = tk.tick
	tk.ev = s.After(d, tk.tickFn)
	return tk.stop
}
