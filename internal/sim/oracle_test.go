package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// refSim is the event queue as it stood before lanes: one four-ary heap of
// *refEvent that holds every pending event, link arrivals included. The heap
// (less, siftUp, siftDown, push, popMin, removeAt), the free list, schedule,
// Cancel, Step and RunUntil are the parent's bodies verbatim, renamed only
// where the names collide. (when, seq) is a strict total order, so whatever
// structure holds the events, they must run in the order this one runs them.
type refSim struct {
	now  units.Time
	seq  uint64
	heap []*refEvent
	free []*refEvent
	nrun uint64
}

type refEvent struct {
	when units.Time
	seq  uint64
	gen  uint64
	idx  int
	fn   func()
	fnA  func(any)
	arg  any
}

type refRef struct {
	ev  *refEvent
	gen uint64
}

func (r refRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.idx >= 0
}

func (r refRef) Time() units.Time {
	if !r.Pending() {
		return 0
	}
	return r.ev.when
}

func (s *refSim) Now() units.Time   { return s.now }
func (s *refSim) Processed() uint64 { return s.nrun }
func (s *refSim) Pending() int      { return len(s.heap) }

func refLess(a, b *refEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (s *refSim) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		pi := (i - 1) >> 2
		p := s.heap[pi]
		if !refLess(e, p) {
			break
		}
		s.heap[i] = p
		p.idx = i
		i = pi
	}
	s.heap[i] = e
	e.idx = i
}

func (s *refSim) siftDown(i int) {
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
			if refLess(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !refLess(s.heap[m], e) {
			break
		}
		s.heap[i] = s.heap[m]
		s.heap[i].idx = i
		i = m
	}
	s.heap[i] = e
	e.idx = i
}

func (s *refSim) push(e *refEvent) {
	s.heap = append(s.heap, e)
	e.idx = len(s.heap) - 1
	s.siftUp(e.idx)
}

func (s *refSim) popMin() *refEvent {
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

func (s *refSim) removeAt(i int) *refEvent {
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

func (s *refSim) alloc() *refEvent {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &refEvent{}
}

func (s *refSim) release(e *refEvent) {
	e.gen++
	e.idx = -1
	e.fn = nil
	e.fnA = nil
	e.arg = nil
	s.free = append(s.free, e)
}

func (s *refSim) schedule(t units.Time, fn func(), fnA func(any), arg any) refRef {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.when = t
	e.seq = s.seq
	s.seq++
	e.fn = fn
	e.fnA = fnA
	e.arg = arg
	s.push(e)
	return refRef{ev: e, gen: e.gen}
}

func (s *refSim) cancel(ref refRef) {
	e := ref.ev
	if e == nil || e.gen != ref.gen || e.idx < 0 {
		return
	}
	s.removeAt(e.idx)
	s.release(e)
}

func (s *refSim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.popMin()
	s.now = e.when
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

func (s *refSim) RunUntil(deadline units.Time) {
	for len(s.heap) > 0 && s.heap[0].when <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// engine is the face the oracle drives both simulators through.
type engine interface {
	Now() units.Time
	Pending() int
	Processed() uint64
	At(t units.Time, fn func()) handle
	After(d units.Duration, fn func()) handle
	AtCall(t units.Time, fn func(any), arg any) handle
	AfterCall(d units.Duration, fn func(any), arg any) handle
	LaneCall(d units.Duration, fn func(any), arg any)
	Cancel(h handle)
	NewTimer(fn func()) timer
	Every(d units.Duration, fn func()) (stop func())
	Step() bool
	RunUntil(t units.Time)
}

type handle interface {
	Pending() bool
	Time() units.Time
}

type timer interface {
	Reset(d units.Duration)
	Stop()
	Armed() bool
}

// simEngine is the Simulator under test. LaneCall looks its lane up on every
// call, so the lookup is exercised as well. Its timers are Rearm timers and
// its tickers Every's or, with timers set, the Timer and ticker they
// replaced (timer_oracle_test.go).
type simEngine struct {
	*Simulator
	timers bool
}

func (s simEngine) At(t units.Time, fn func()) handle { return s.Simulator.At(t, fn) }
func (s simEngine) After(d units.Duration, fn func()) handle {
	return s.Simulator.After(d, fn)
}
func (s simEngine) AtCall(t units.Time, fn func(any), arg any) handle {
	return s.Simulator.AtCall(t, fn, arg)
}
func (s simEngine) AfterCall(d units.Duration, fn func(any), arg any) handle {
	return s.Simulator.AfterCall(d, fn, arg)
}
func (s simEngine) LaneCall(d units.Duration, fn func(any), arg any) { s.Lane(d).Call(fn, arg) }
func (s simEngine) Cancel(h handle)                                  { s.Simulator.Cancel(h.(EventRef)) }

func (s simEngine) NewTimer(fn func()) timer {
	if s.timers {
		return s.Simulator.NewTimer(fn)
	}
	return &rearmTimer{s: s.Simulator, fn: fn}
}

func (s simEngine) Every(d units.Duration, fn func()) (stop func()) {
	if s.timers {
		return s.timerEvery(d, fn)
	}
	return s.Simulator.Every(d, fn)
}

// refEngine is the reference: a lane call is an AfterCall of the lane's
// delay, which is what a lane claims to be. Timer and Every are the
// oracle's (with Every's re-arm check), rebuilt on the reference heap.
type refEngine struct{ *refSim }

func (s refEngine) At(t units.Time, fn func()) handle { return s.schedule(t, fn, nil, nil) }
func (s refEngine) After(d units.Duration, fn func()) handle {
	return s.schedule(s.now.Add(max(d, 0)), fn, nil, nil)
}
func (s refEngine) AtCall(t units.Time, fn func(any), arg any) handle {
	return s.schedule(t, nil, fn, arg)
}
func (s refEngine) AfterCall(d units.Duration, fn func(any), arg any) handle {
	return s.schedule(s.now.Add(max(d, 0)), nil, fn, arg)
}
func (s refEngine) LaneCall(d units.Duration, fn func(any), arg any) { s.AfterCall(d, fn, arg) }
func (s refEngine) Cancel(h handle)                                  { s.cancel(h.(refRef)) }

type refTimer struct {
	e  refEngine
	ev handle
	fn func()
}

func (s refEngine) NewTimer(fn func()) timer { return &refTimer{e: s, ev: refRef{}, fn: fn} }

func (t *refTimer) Reset(d units.Duration) {
	t.e.Cancel(t.ev)
	t.ev = t.e.After(d, t.fire)
}

func (t *refTimer) Stop() {
	t.e.Cancel(t.ev)
	t.ev = refRef{}
}

func (t *refTimer) Armed() bool { return t.ev.Pending() }

func (t *refTimer) fire() {
	t.ev = refRef{}
	t.fn()
}

func (s refEngine) Every(d units.Duration, fn func()) (stop func()) {
	var ev handle
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if stopped {
			return
		}
		ev = s.After(d, tick)
	}
	ev = s.After(d, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
		ev = refRef{}
	}
}

// script feeds the program its decisions, one byte each; past its end every
// decision is 0, which every choice below reads as "do nothing", so a
// program winds down once its script is spent.
type script struct {
	data []byte
	pos  int
}

func (sc *script) n(k int) int {
	if sc.pos >= len(sc.data) {
		return 0
	}
	b := sc.data[sc.pos]
	sc.pos++
	return int(b) % k
}

// rec is what a callback saw when it ran.
type rec struct {
	id      int
	now     units.Time
	pending int
	probe   int64
}

// oracleDelays are coarse and overlap the lane delays, so ties between heap
// and lane events at one instant are the rule. The first recurringLanes lane
// delays (five lanes) come back all program long, so lanes empty and refill;
// a program takes each of the other five only once, in order, so those lanes
// fill, empty and are never used again, like the lanes a port leaves behind
// as its largest packet grows. Ten lanes in all: emptying one moves another
// lane's head into its slot.
var (
	oracleDelays = []units.Duration{0, units.Microsecond, 2 * units.Microsecond, 5 * units.Microsecond}
	laneDelays   = []units.Duration{
		0, units.Microsecond, units.Microsecond, 2 * units.Microsecond, 5 * units.Microsecond, -units.Microsecond, 3 * units.Microsecond,
		883200 * units.Picosecond, 553600 * units.Picosecond, 7 * units.Microsecond, 289600 * units.Picosecond, 225600 * units.Picosecond,
	}
)

const recurringLanes = 7

// program is one random schedule, a function of its script alone: callbacks
// that log themselves and then schedule, cancel, re-arm, start and stop
// tickers (their own included) and step the engine from inside.
type program struct {
	e       engine
	sc      script
	log     []rec
	handles []handle
	timers  []timer
	stops   []func()
	nextID  int
	depth   int
	once    int // one-shot lane delays handed out so far
}

const (
	timerID  = 1 << 20
	tickerID = 2 << 20
)

func (p *program) fired(id int) {
	p.log = append(p.log, rec{id, p.e.Now(), p.e.Pending(), p.probe()})
	for n := p.sc.n(4); n > 0; n-- {
		p.op()
	}
}

func (p *program) firedArg(a any) { p.fired(a.(int)) }

// probe reads one earlier handle or timer the way a model would.
func (p *program) probe() int64 {
	if len(p.handles) > 0 {
		if h := p.handles[p.sc.n(len(p.handles))]; h.Pending() {
			return int64(h.Time()) + 1
		}
		return 0
	}
	return -1
}

func (p *program) delay() units.Duration { return oracleDelays[p.sc.n(len(oracleDelays))] }

// laneDelay picks a recurring lane delay or, one time in eight while any
// are left, the next one-shot delay.
func (p *program) laneDelay() units.Duration {
	if p.sc.n(8) == 7 && recurringLanes+p.once < len(laneDelays) {
		p.once++
		return laneDelays[recurringLanes+p.once-1]
	}
	return laneDelays[p.sc.n(recurringLanes)]
}

func (p *program) op() {
	p.nextID++
	id := p.nextID
	switch p.sc.n(16) {
	case 1:
		p.handles = append(p.handles, p.e.At(p.e.Now().Add(p.delay()), func() { p.fired(id) }))
	case 2:
		p.handles = append(p.handles, p.e.After(p.delay(), func() { p.fired(id) }))
	case 3:
		p.handles = append(p.handles, p.e.AtCall(p.e.Now().Add(p.delay()), p.firedArg, id))
	case 4:
		p.handles = append(p.handles, p.e.AfterCall(p.delay(), p.firedArg, id))
	case 5, 6, 7:
		p.e.LaneCall(p.laneDelay(), p.firedArg, id)
	case 8:
		if len(p.handles) > 0 {
			p.e.Cancel(p.handles[p.sc.n(len(p.handles))])
		}
	case 9:
		if len(p.timers) < 4 {
			i := len(p.timers)
			p.timers = append(p.timers, p.e.NewTimer(func() { p.fired(timerID + i) }))
		}
		p.timers[p.sc.n(len(p.timers))].Reset(p.delay())
	case 10:
		if len(p.timers) > 0 {
			tm := p.timers[p.sc.n(len(p.timers))]
			if tm.Armed() {
				tm.Stop()
			}
		}
	case 11:
		if len(p.stops) < 3 {
			i := len(p.stops)
			period := units.Duration(1+p.sc.n(3)) * units.Microsecond
			p.stops = append(p.stops, p.e.Every(period, func() { p.fired(tickerID + i) }))
		}
	case 12:
		if len(p.stops) > 0 {
			p.stops[p.sc.n(len(p.stops))]()
		}
	case 13:
		if p.depth < 2 {
			p.depth++
			p.e.Step()
			p.depth--
		}
	case 14:
		if p.depth < 2 {
			p.depth++
			p.e.RunUntil(p.e.Now().Add(p.delay()))
			p.depth--
		}
	}
}

// run plays the script on e: top-level steps, RunUntils and operations
// between events, then every ticker stopped and the rest run out.
func (p *program) run() {
	for i := 0; i < 8; i++ {
		p.op()
	}
	for p.sc.pos < len(p.sc.data) {
		switch p.sc.n(4) {
		case 0, 1:
			p.e.Step()
		case 2:
			p.e.RunUntil(p.e.Now().Add(p.delay()))
		case 3:
			p.op()
		}
		p.log = append(p.log, rec{-1, p.e.Now(), p.e.Pending(), p.probe()})
	}
	for _, stop := range p.stops {
		stop()
	}
	for p.e.Step() {
	}
	p.log = append(p.log, rec{-2, p.e.Now(), p.e.Pending(), int64(p.e.Processed())})
}

// queueAgainstReference fails at the first callback that ran out of the
// reference's order, at another time, or saw another Pending() or another
// answer from an EventRef. The same program with the Timer and ticker that
// Rearm and Every replaced must also agree with it, and leave the heap's
// high-water mark and the free list's reuse count where they left them:
// an arming that scheduled before it canceled would move both.
func queueAgainstReference(t testing.TB, data []byte) int {
	got := &program{e: simEngine{Simulator: New()}, sc: script{data: data}}
	timers := &program{e: simEngine{Simulator: New(), timers: true}, sc: script{data: data}}
	want := &program{e: refEngine{&refSim{}}, sc: script{data: data}}
	got.run()
	timers.run()
	want.run()
	sameLog(t, "reference", got.log, want.log)
	sameLog(t, "Timer", got.log, timers.log)
	g, o := got.e.(simEngine), timers.e.(simEngine)
	if g.MaxPending() != o.MaxPending() || g.PoolReuse() != o.PoolReuse() {
		t.Fatalf("heap high-water %d, pool reuse %d; with Timer %d, %d",
			g.MaxPending(), g.PoolReuse(), o.MaxPending(), o.PoolReuse())
	}
	return len(want.log)
}

func sameLog(t testing.TB, what string, got, want []rec) {
	t.Helper()
	if !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				var g any = "nothing"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("record %d of %d: got %+v, %s %+v", i, len(want), g, what, want[i])
			}
		}
		t.Fatalf("%d records, %s %d", len(got), what, len(want))
	}
}

func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	records := 0
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 200+rng.Intn(3000))
		rng.Read(data)
		records += queueAgainstReference(t, data)
	}
	if records < 100000 {
		t.Fatalf("only %d records over 400 programs: the programs are not running", records)
	}
}

func FuzzQueueMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 4; i++ {
		data := make([]byte, 400)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		queueAgainstReference(t, data)
	})
}
