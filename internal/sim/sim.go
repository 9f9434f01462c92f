// Package sim provides the discrete-event simulation engine that drives the
// whole reproduction: a four-ary event heap specialized to *Event, fixed-delay
// lanes for the events that need no heap, a virtual clock, and a free list
// that recycles Event objects so that scheduling and running an event
// allocate nothing once the free list has grown to the heap's depth. Every
// event is a call fn(arg), and a timer is the EventRef it has pending.
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

// Event is a call fn(arg) scheduled to run at a fixed simulated time. Event
// objects are owned and recycled by the Simulator's free list; callers hold
// EventRef handles, never bare *Event.
type Event struct {
	when units.Time
	seq  uint64 // tie-break: FIFO order among same-time events
	gen  uint64 // bumped on every recycle so stale refs can be detected
	idx  int    // heap index; -1 while popped, canceled, or on the free list
	fn   func(any)
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
	now     units.Time
	seq     uint64
	heap    []*Event   // four-ary min-heap ordered by (when, seq)
	free    []*Event   // recycled Event objects awaiting reuse
	lanes   []*Lane    // one per distinct delay, in order of first use
	heads   []laneHead // the head of every non-empty lane, in no order
	inLanes int        // events waiting in lanes
	nrun    uint64
	reused  uint64
	maxHeap int
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Processed reports how many events have been executed, heap and lane
// events alike.
func (s *Simulator) Processed() uint64 { return s.nrun }

// Pending reports how many events are scheduled but not yet run: those on
// the heap plus those waiting in lanes. A run loop that stops at zero stops
// when nothing at all is left to happen.
func (s *Simulator) Pending() int { return len(s.heap) + s.inLanes }

// MaxPending reports the event heap's high-water mark — the telemetry
// layer's sizing signal for how much simultaneity a scenario puts on the
// priority queue. Lane events never enter the heap and do not count.
func (s *Simulator) MaxPending() int { return s.maxHeap }

// PoolReuse reports how many heap-event schedules were served from the free
// list instead of the allocator. At steady state this tracks the number of
// heap events processed: almost every new one reuses the object of one that
// already fired. Lane events carry no Event object and do not count.
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
	e.arg = nil
	s.free = append(s.free, e)
}

// nextSeq takes the next tie-break sequence number. Heap and lane events
// draw from this one counter, so (when, seq) is a strict total order over
// everything pending, whichever structure holds it.
func (s *Simulator) nextSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// At schedules fn to run at absolute time t: AtCall with fn as the arg of a
// package-level trampoline. A func value is pointer-shaped, so the arg holds
// it without allocating; a closure built for the call may allocate.
func (s *Simulator) At(t units.Time, fn func()) EventRef {
	return s.AtCall(t, call, fn)
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d units.Duration, fn func()) EventRef {
	return s.AfterCall(d, call, fn)
}

// call is the event function of At and After: arg is the func() to run.
func call(arg any) { arg.(func())() }

// AtCall schedules fn(arg) at absolute time t. With a package-level fn and a
// pooled arg this schedules without allocating. Lane.Call is the same form
// for fixed-delay events. Scheduling in the past panics: it always indicates
// a model bug, and silently reordering time would corrupt every queue
// measurement downstream.
func (s *Simulator) AtCall(t units.Time, fn func(any), arg any) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.when = t
	e.seq = s.nextSeq()
	e.fn = fn
	e.arg = arg
	s.push(e)
	return EventRef{ev: e, gen: e.gen}
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

// Rearm makes *ev a timer: it cancels the event *ev refers to, if pending,
// and schedules fn(arg) d from now into *ev. Cancelling first returns the
// old event to the free list, so the new one reuses it, and a timer re-armed
// on every ACK allocates nothing. The timer is armed while ev.Pending();
// Cancel(*ev) stops it. A fired event's ref is stale and not pending, but
// fn clears *ev before it acts all the same, so that a handle never points
// at an Event the free list has handed on.
func (s *Simulator) Rearm(ev *EventRef, d units.Duration, fn func(any), arg any) {
	s.Cancel(*ev)
	*ev = s.AfterCall(d, fn, arg)
}

// Lane is a FIFO of events that each fire one fixed delay after they are
// scheduled. The clock never runs backwards and sequence numbers only grow,
// so the events of a lane are in (when, seq) order as they are appended: a
// lane is a sorted queue by construction and needs no heap. Step merges the
// lane heads with the heap root by that same key, which makes a lane event
// run exactly where an AfterCall with the same delay, made at the same
// point, would have run. Lane events cannot be canceled and carry no Event
// object; half of a packet simulation's events (link propagation) are of
// this kind.
type Lane struct {
	sim   *Simulator
	delay units.Duration
	// ring holds n events starting at head; its length is a power of two.
	ring []laneEvent
	head int
	n    int
	slot int // index of this lane's entry in sim.heads while n > 0
}

type laneEvent struct {
	when units.Time
	seq  uint64
	fn   func(any)
	arg  any
}

// laneHead is a copy of a non-empty lane's first (when, seq). The simulator
// keeps one per non-empty lane, packed, so the search for the next event
// reads a short array instead of every lane ever created: a port leaves a
// lane behind each time its largest packet grows, and those never refill.
type laneHead struct {
	when units.Time
	seq  uint64
	lane *Lane
}

// Lane returns the simulator's lane for delay d, creating it on first use.
// There is one lane per distinct delay, and a lookup walks them all, so
// callers keep the lanes they use: a link looks its delay up once, at
// construction, and a port again only when the largest packet it has served
// grows. A negative delay is zero, as for AfterCall.
func (s *Simulator) Lane(d units.Duration) *Lane {
	if d < 0 {
		d = 0
	}
	for _, l := range s.lanes {
		if l.delay == d {
			return l
		}
	}
	l := &Lane{sim: s, delay: d}
	s.lanes = append(s.lanes, l)
	return l
}

// Call schedules fn(arg) to run the lane's delay after the current time. It
// is AfterCall(delay, fn, arg) without the heap: same firing time, same
// tie-break sequence number, no handle to cancel it with.
func (l *Lane) Call(fn func(any), arg any) {
	if l.n == len(l.ring) {
		l.grow()
	}
	s := l.sim
	// Field by field: a laneEvent literal is built on the stack and copied
	// in 16-byte moves that straddle the two 8-byte stores just made, which
	// defeats store-to-load forwarding on the hottest line of a packet cell.
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	e.when = s.now.Add(l.delay)
	e.seq = s.nextSeq()
	e.fn = fn
	e.arg = arg
	if l.n == 0 {
		l.slot = len(s.heads)
		s.heads = append(s.heads, laneHead{when: e.when, seq: e.seq, lane: l})
	}
	l.n++
	s.inLanes++
}

// grow doubles the ring and moves the waiting events to its start.
func (l *Lane) grow() {
	grown := make([]laneEvent, max(16, 2*len(l.ring)))
	n := copy(grown, l.ring[l.head:])
	copy(grown[n:], l.ring[:l.head])
	l.ring, l.head = grown, 0
}

// earliest finds the next event to run by (when, seq): from is the lane whose
// head it is, or nil when it is the heap root. ok is false when nothing is
// pending.
func (s *Simulator) earliest() (from *Lane, when units.Time, ok bool) {
	var seq uint64
	if len(s.heap) > 0 {
		when, seq, ok = s.heap[0].when, s.heap[0].seq, true
	}
	for i := range s.heads {
		h := &s.heads[i]
		if !ok || h.when < when || (h.when == when && h.seq < seq) {
			from, when, seq, ok = h.lane, h.when, h.seq, true
		}
	}
	return from, when, ok
}

// Step runs the single earliest pending event, from the heap or a lane. It
// reports false when no events remain. A heap event's Event object is
// released to the free list before the callback runs, so a callback that
// schedules exactly one follow-up event — the dominant pattern — reuses the
// very object that just fired.
func (s *Simulator) Step() bool {
	from, when, ok := s.earliest()
	if !ok {
		return false
	}
	s.fire(from, when)
	return true
}

// fire runs the event earliest found.
func (s *Simulator) fire(from *Lane, when units.Time) {
	s.now = when
	s.nrun++
	if from != nil {
		from.run()
		return
	}
	e := s.popMin()
	fn, arg := e.fn, e.arg
	s.release(e)
	fn(arg)
}

// run pops the lane's head and calls it. Before the call, the lane's entry in
// heads shows its new first event, or, when the lane has emptied, is gone:
// the last entry takes its slot.
func (l *Lane) run() {
	h := &l.ring[l.head]
	fn, arg := h.fn, h.arg
	h.fn, h.arg = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	s := l.sim
	s.inLanes--
	if l.n > 0 {
		next := &l.ring[l.head]
		hd := &s.heads[l.slot]
		hd.when, hd.seq = next.when, next.seq
	} else {
		last := len(s.heads) - 1
		moved := s.heads[last]
		s.heads[l.slot] = moved
		moved.lane.slot = l.slot
		s.heads = s.heads[:last]
	}
	fn(arg)
}

// Run executes events until none is pending.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (s *Simulator) RunUntil(deadline units.Time) {
	for {
		from, when, ok := s.earliest()
		if !ok || when > deadline {
			break
		}
		s.fire(from, when)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ticker is the state of one Every: its pending tick is its own event, as a
// Rearm timer's is.
type ticker struct {
	sim     *Simulator
	period  units.Duration
	fn      func()
	ev      EventRef
	stopped bool
}

// tick is the event function of a ticker.
func tick(arg any) {
	tk := arg.(*ticker)
	tk.fn()
	if tk.stopped { // fn itself may have called stop
		return
	}
	tk.ev = tk.sim.AfterCall(tk.period, tick, tk)
}

func (tk *ticker) stop() {
	tk.stopped = true
	tk.sim.Cancel(tk.ev)
	tk.ev = EventRef{}
}

// Every schedules fn to run now+d, now+2d, ... until the returned stop
// function is called, from fn itself or from anywhere else. The ticker
// allocates once; individual ticks are allocation-free.
func (s *Simulator) Every(d units.Duration, fn func()) (stop func()) {
	if d <= 0 {
		panic("sim: Every requires a positive period")
	}
	tk := &ticker{sim: s, period: d, fn: fn}
	tk.ev = s.AfterCall(d, tick, tk)
	return tk.stop
}
