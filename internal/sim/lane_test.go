package sim

import (
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// runWires plays one random schedule — arrivals on five wires that log
// themselves, send onward and start timers, on coarse times so that ties are
// the rule — and returns the order the callbacks ran in. The schedule is a
// function of seed alone; laneProb only decides, from a second stream, which
// sends go through the lane for the wire's delay instead of AfterCall.
func runWires(seed int64, laneProb float64) (order []int, processed uint64) {
	s := New()
	rng := rand.New(rand.NewSource(seed))
	choose := rand.New(rand.NewSource(seed + 1))
	// Two wires share a delay and one has none: arrivals collide with each
	// other and with the event that sent them.
	delays := []units.Duration{0, units.Microsecond, units.Microsecond, 2 * units.Microsecond, 5 * units.Microsecond}
	nextID, budget := 0, 3000
	var arriveFn func(a any)
	send := func() {
		if budget == 0 {
			return
		}
		budget--
		nextID++
		d := delays[rng.Intn(len(delays))]
		if choose.Float64() < laneProb {
			s.Lane(d).Call(arriveFn, nextID)
		} else {
			s.AfterCall(d, arriveFn, nextID)
		}
	}
	arriveFn = func(a any) {
		order = append(order, a.(int))
		for n := rng.Intn(3); n > 0; n-- {
			send()
		}
		if rng.Intn(4) == 0 && budget > 0 {
			budget--
			nextID++
			id := nextID
			s.After(units.Duration(rng.Intn(3))*units.Microsecond, func() { arriveFn(id) })
		}
	}
	for i := 0; i < 40; i++ {
		nextID++
		id := nextID
		s.At(units.Time(rng.Intn(4))*units.Time(units.Microsecond), func() { arriveFn(id) })
	}
	s.Run()
	return order, s.Processed()
}

// TestLaneKeepsCallbackOrder is the argument netsim.Link rests on: an event
// put in a lane runs exactly where an AfterCall of the lane's delay, made at
// the same point, would have run — among other lanes' events and heap events
// at the same instant too.
func TestLaneKeepsCallbackOrder(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		heap, heapRun := runWires(seed, 0)
		if len(heap) < 1000 {
			t.Fatalf("seed %d: schedule ran only %d callbacks", seed, len(heap))
		}
		for _, p := range []float64{0.3, 1} {
			got, gotRun := runWires(seed, p)
			if !slices.Equal(got, heap) {
				t.Fatalf("seed %d, %v through lanes: callback order differs from the all-heap run", seed, p)
			}
			if gotRun != heapRun {
				t.Fatalf("seed %d, %v through lanes: %d events processed, all-heap run %d", seed, p, gotRun, heapRun)
			}
		}
	}
}

func TestLaneIsOnePerDelay(t *testing.T) {
	s := New()
	a, b := s.Lane(units.Microsecond), s.Lane(2*units.Microsecond)
	if a == b {
		t.Fatal("two delays share a lane")
	}
	if s.Lane(units.Microsecond) != a {
		t.Fatal("a second lookup of one delay made a second lane")
	}
	if s.Lane(-units.Microsecond) != s.Lane(0) {
		t.Fatal("a negative delay is not the zero-delay lane")
	}
}

// TestLaneEventsCountAsPending: a loop that runs while Pending() > 0 must not
// end with arrivals still in a lane; the heap's high-water mark is the
// heap's alone; RunUntil holds lane events to its deadline too.
func TestLaneEventsCountAsPending(t *testing.T) {
	s := New()
	us := func(n int) units.Time { return units.Time(n) * units.Time(units.Microsecond) }
	var ran []units.Time
	note := func(any) { ran = append(ran, s.Now()) }
	l := s.Lane(3 * units.Microsecond)
	for i := 0; i < 40; i++ { // grows the ring twice
		l.Call(note, nil)
	}
	s.At(us(1), func() { l.Call(note, nil) })
	if s.Pending() != 41 || s.MaxPending() != 1 {
		t.Fatalf("Pending %d, MaxPending %d; want 41 and 1", s.Pending(), s.MaxPending())
	}
	s.RunUntil(us(3))
	if len(ran) != 40 || s.Pending() != 1 || s.Now() != us(3) {
		t.Fatalf("RunUntil(3us): %d lane events ran, %d pending, now %v; want 40, 1, 3us", len(ran), s.Pending(), s.Now())
	}
	s.RunUntil(us(3)) // the one left fires at 4us
	if len(ran) != 40 {
		t.Fatal("RunUntil ran a lane event beyond its deadline")
	}
	s.Run()
	if len(ran) != 41 || ran[40] != us(4) || s.Pending() != 0 || s.Processed() != 42 {
		t.Fatalf("after Run: %d lane events, last at %v, %d pending, %d processed; want 41, 4us, 0, 42",
			len(ran), ran[len(ran)-1], s.Pending(), s.Processed())
	}
}

// TestEveryStopInsideCallback: a stop issued by the tick callback itself
// used to cancel the event that had already fired, and the ticker re-armed
// regardless — one phantom tick, and a Run that ended a period late.
func TestEveryStopInsideCallback(t *testing.T) {
	s := New()
	ticks := 0
	var stop func()
	stop = s.Every(units.Microsecond, func() {
		if ticks++; ticks == 3 {
			stop()
		}
	})
	s.Run()
	if ticks != 3 || s.Processed() != 3 || s.Now() != units.Time(3*units.Microsecond) || s.Pending() != 0 {
		t.Fatalf("%d ticks, %d events, now %v, %d pending; want 3, 3, 3us, 0", ticks, s.Processed(), s.Now(), s.Pending())
	}
}

// TestLaneZeroAlloc: once its ring has grown, a lane schedules and runs
// without allocating.
func TestLaneZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := New()
	l := s.Lane(units.Microsecond)
	arg := &struct{ n int }{}
	fn := func(a any) { a.(*struct{ n int }).n++ }
	burst := func() {
		for i := 0; i < 8; i++ {
			l.Call(fn, arg)
		}
		s.Run()
	}
	burst() // grow the ring
	if avg := testing.AllocsPerRun(1000, burst); avg != 0 {
		t.Fatalf("8 lane events allocate %.2f per burst, want 0", avg)
	}
}
