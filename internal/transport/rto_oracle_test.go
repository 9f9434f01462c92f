package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// Timer is sim.Timer as it stood before a timer became its pending event,
// the oracle for the sender's retransmission timer. The bodies are verbatim;
// NewTimer, a Simulator method then, takes the simulator as its argument.
type Timer struct {
	sim    *sim.Simulator
	ev     sim.EventRef
	fn     func()
	fireFn func() // t.fire bound once; a fresh method value per Reset would allocate
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(s *sim.Simulator, fn func()) *Timer {
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
	t.ev = sim.EventRef{}
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.ev.Pending() }

func (t *Timer) fire() {
	t.ev = sim.EventRef{}
	t.fn()
}

// timerRTO is the retransmission timer as the sender held it before the timer
// became its pending event, kept verbatim in its four uses as the oracle:
//
//	snd.rtoTimer = s.NewTimer(snd.onTimeout)               // newSender
//	if !s.rtoTimer.Armed() { s.rtoTimer.Reset(s.rto) }     // transmit
//	s.rtoTimer.Reset(s.rto)                                // new ACK, fast retransmit, timeout
//	s.rtoTimer.Stop()                                      // complete
type timerRTO struct{ rtoTimer *Timer }

func (t *timerRTO) armIfIdle(rto units.Duration) {
	if !t.rtoTimer.Armed() {
		t.rtoTimer.Reset(rto)
	}
}
func (t *timerRTO) reset(rto units.Duration) { t.rtoTimer.Reset(rto) }
func (t *timerRTO) stop()                    { t.rtoTimer.Stop() }
func (t *timerRTO) armed() bool              { return t.rtoTimer.Armed() }

// eventRTO is the same four uses the way Sender makes them now: the pending
// event itself, armed through Rearm on a package-level function.
type eventRTO struct {
	s  *sim.Simulator
	ev sim.EventRef
	fn func()
}

func fireEventRTO(arg any) {
	t := arg.(*eventRTO)
	t.ev = sim.EventRef{}
	t.fn()
}

func (t *eventRTO) armIfIdle(rto units.Duration) {
	if !t.ev.Pending() {
		t.reset(rto)
	}
}
func (t *eventRTO) reset(rto units.Duration) { t.s.Rearm(&t.ev, rto, fireEventRTO, t) }
func (t *eventRTO) stop() {
	t.s.Cancel(t.ev)
	t.ev = sim.EventRef{}
}
func (t *eventRTO) armed() bool { return t.ev.Pending() }

// rtoSide is one simulator of a lockstep pair with its timers and the log of
// everything that fired on it.
type rtoSide struct {
	s      *sim.Simulator
	timers []interface {
		armIfIdle(units.Duration)
		reset(units.Duration)
		stop()
		armed() bool
	}
	log   []string
	fires int
}

// checkRTOMatchesTimer runs one seeded script of timer uses against both
// forms on two simulators and compares them after every operation: what
// fired, when and in which order, the clock, the event counts, the heap's
// high-water mark, the free list's reuse and which timers are armed. Timers that fire re-arm or stop themselves from inside
// the handler, as onTimeout and complete do, and unrelated events share the
// heap with them, some at the same instants.
func checkRTOMatchesTimer(tb testing.TB, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	nTimers := 1 + rng.Intn(4)
	delays := []units.Duration{0, units.Microsecond, 3 * units.Microsecond, 10 * units.Microsecond}
	// What a firing timer does next, drawn once and read by both sides in
	// firing order: 0 re-arms, 1 stops, 2 does nothing.
	onFire := make([]int, 512)
	for i := range onFire {
		onFire[i] = rng.Intn(3)
	}
	var sides [2]*rtoSide
	for k := range sides {
		side := &rtoSide{s: sim.New()}
		for i := 0; i < nTimers; i++ {
			i := i
			var self interface{ reset(units.Duration) }
			fn := func() {
				side.log = append(side.log, fmt.Sprintf("rto%d@%v", i, side.s.Now()))
				act := onFire[side.fires%len(onFire)]
				side.fires++
				switch act {
				case 0:
					self.reset(delays[side.fires%len(delays)])
				case 1:
					side.timers[i].stop()
				}
			}
			if k == 0 {
				t := &timerRTO{rtoTimer: NewTimer(side.s, fn)}
				self, side.timers = t, append(side.timers, t)
			} else {
				t := &eventRTO{s: side.s, fn: fn}
				self, side.timers = t, append(side.timers, t)
			}
		}
		sides[k] = side
	}
	for op := 0; op < 200; op++ {
		kind, i, d := rng.Intn(6), rng.Intn(nTimers), delays[rng.Intn(len(delays))]
		for _, side := range sides {
			switch kind {
			case 0:
				side.timers[i].armIfIdle(d)
			case 1:
				side.timers[i].reset(d)
			case 2:
				side.timers[i].stop()
			case 3:
				side := side
				side.s.After(d, func() { side.log = append(side.log, fmt.Sprintf("other@%v", side.s.Now())) })
			default:
				side.s.Step()
			}
		}
		a, b := sides[0], sides[1]
		where := fmt.Sprintf("seed %d op %d (kind %d, timer %d, %v)", seed, op, kind, i, d)
		if a.s.Now() != b.s.Now() || a.s.Processed() != b.s.Processed() || a.s.Pending() != b.s.Pending() ||
			a.s.MaxPending() != b.s.MaxPending() || a.s.PoolReuse() != b.s.PoolReuse() {
			tb.Fatalf("%s: event form at %v, %d run, %d pending, %d deepest, %d reused; Timer at %v, %d run, %d pending, %d deepest, %d reused",
				where, b.s.Now(), b.s.Processed(), b.s.Pending(), b.s.MaxPending(), b.s.PoolReuse(),
				a.s.Now(), a.s.Processed(), a.s.Pending(), a.s.MaxPending(), a.s.PoolReuse())
		}
		if !slices.Equal(a.log, b.log) {
			tb.Fatalf("%s: event form fired %v, Timer %v", where, b.log, a.log)
		}
		for j := range a.timers {
			if a.timers[j].armed() != b.timers[j].armed() {
				tb.Fatalf("%s: timer %d armed %v, Timer %v", where, j, b.timers[j].armed(), a.timers[j].armed())
			}
		}
	}
	for sides[0].s.Step() {
		sides[1].s.Step()
	}
	if !slices.Equal(sides[0].log, sides[1].log) || sides[1].s.Pending() != 0 {
		tb.Fatalf("seed %d drained: event form fired %v with %d pending, Timer %v", seed, sides[1].log, sides[1].s.Pending(), sides[0].log)
	}
}

// TestRTOMatchesTimer holds the sender's event-form timer to the Timer it
// replaced, over seeded scripts.
func TestRTOMatchesTimer(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkRTOMatchesTimer(t, seed)
	}
}

func FuzzRTOMatchesTimer(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkRTOMatchesTimer(t, seed) })
}

// TestSenderKeepsOneRTOPending runs flows that lose packets at a shallow NIC
// buffer, with fast retransmits and timeouts, and checks after every event
// that each sender has its retransmission timeout pending exactly while it
// has data in flight: one is armed by the first transmission, and none
// outlives the flow's completion.
func TestSenderKeepsOneRTOPending(t *testing.T) {
	s := sim.New()
	ha, hb := netsim.NewHost(0, nil), netsim.NewHost(1, nil)
	nic := func(dst netsim.Node, buf units.ByteSize) *netsim.Port {
		p, err := netsim.NewPort(s, netsim.PortConfig{
			Rate: units.Gbps, Buffer: buf, Queues: 1,
			Scheduler: sched.NewSPQ(), Admission: buffer.NewBestEffort(),
			Link: netsim.NewLink(s, 20*units.Microsecond, dst),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Six flows start at once behind the sender's NIC, whose 12-segment
	// buffer drops much of their slow-start bursts.
	ha.SetEgress(nic(hb, 12*1500))
	hb.SetEgress(nic(ha, units.MB))
	a := NewEndpoint(s, ha)
	NewEndpoint(s, hb)
	var senders []*Sender
	done := 0
	for f := 1; f <= 6; f++ {
		ctrl := Controller(nil)
		if f%2 == 0 {
			ctrl = NewCubic()
		}
		snd, err := a.StartFlow(FlowConfig{
			Flow: packet.FlowID(f), Dst: 1, Size: units.ByteSize(f) * 200 * units.KB, Ctrl: ctrl, MinRTO: units.Millisecond,
			OnComplete: func(units.Duration) { done++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, snd)
	}
	var timeouts, fast int64
	for done < len(senders) && s.Step() {
		for _, snd := range senders {
			inFlight := !snd.done && snd.nxt > snd.una
			if snd.rtoEv.Pending() != inFlight {
				t.Fatalf("at %v flow %d: RTO pending %v with una %d, nxt %d, done %v",
					s.Now(), snd.flow, snd.rtoEv.Pending(), snd.una, snd.nxt, snd.done)
			}
		}
	}
	for _, snd := range senders {
		timeouts += snd.stats.Timeouts
		fast += snd.stats.FastRecovers
	}
	if done < len(senders) || timeouts == 0 || fast == 0 {
		t.Fatalf("%d of %d flows done with %d timeouts and %d fast retransmits: the run should finish and exercise both",
			done, len(senders), timeouts, fast)
	}
}
