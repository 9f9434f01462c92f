package sim

import (
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// wire is what netsim.Link does with ReserveSeq, reduced to ints: sends on
// one wire arrive a fixed delay later, in order, so a wire may keep its
// arrivals in a FIFO behind one pending event, each with the sequence number
// reserved when it was sent.
type wire struct {
	s     *Simulator
	delay units.Duration
	fifo  []wireArrival
	body  func(id int)
}

type wireArrival struct {
	id  int
	at  units.Time
	seq uint64
}

func wireHead(a any) {
	w := a.(*wire)
	id := w.fifo[0].id
	w.fifo = w.fifo[1:]
	if len(w.fifo) > 0 {
		w.s.AtCallSeq(w.fifo[0].at, w.fifo[0].seq, wireHead, w)
	}
	w.body(id)
}

// send schedules the arrival of id. Eagerly, that is one AtCall. Deferred,
// the sequence number is reserved now and the event goes onto the heap only
// when everything sent on this wire before it has arrived.
func (w *wire) send(id int, deferred bool) {
	at := w.s.Now().Add(w.delay)
	if !deferred {
		w.s.AtCall(at, func(any) { w.body(id) }, nil)
		return
	}
	w.fifo = append(w.fifo, wireArrival{id: id, at: at, seq: w.s.ReserveSeq()})
	if len(w.fifo) == 1 {
		w.s.AtCallSeq(at, w.fifo[0].seq, wireHead, w)
	}
}

// runWires plays one random schedule — arrivals that log themselves, send
// onward and start timers, on coarse times so that ties are the rule — and
// returns the order the callbacks ran in. The schedule is a function of
// seed alone; deferProb only decides, from a second stream, which sends go
// through a wire's FIFO instead of straight onto the heap.
func runWires(seed int64, deferProb float64) (order []int, processed uint64) {
	s := New()
	rng := rand.New(rand.NewSource(seed))
	choose := rand.New(rand.NewSource(seed + 1))
	wires := make([]*wire, 5)
	nextID, budget := 0, 3000
	var arrive func(id int)
	send := func() {
		if budget == 0 {
			return
		}
		budget--
		nextID++
		wires[rng.Intn(len(wires))].send(nextID, choose.Float64() < deferProb)
	}
	arrive = func(id int) {
		order = append(order, id)
		for n := rng.Intn(3); n > 0; n-- {
			send()
		}
		if rng.Intn(4) == 0 && budget > 0 {
			budget--
			nextID++
			id := nextID
			s.After(units.Duration(rng.Intn(3))*units.Microsecond, func() { arrive(id) })
		}
	}
	// Two wires share a delay and one has none: arrivals collide with each
	// other and with the event that sent them.
	for i, d := range []units.Duration{0, units.Microsecond, units.Microsecond, 2 * units.Microsecond, 5 * units.Microsecond} {
		wires[i] = &wire{s: s, delay: d, body: arrive}
	}
	for i := 0; i < 40; i++ {
		nextID++
		id := nextID
		s.At(units.Time(rng.Intn(4))*units.Time(units.Microsecond), func() { arrive(id) })
	}
	s.Run()
	return order, s.Processed()
}

// TestReservedSeqKeepsCallbackOrder is the argument netsim.Link rests on: an
// event scheduled late with the sequence number it reserved early runs
// exactly where it would have run had it been scheduled early.
func TestReservedSeqKeepsCallbackOrder(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		eager, eagerRun := runWires(seed, 0)
		if len(eager) < 1000 {
			t.Fatalf("seed %d: schedule ran only %d callbacks", seed, len(eager))
		}
		for _, p := range []float64{0.3, 1} {
			got, gotRun := runWires(seed, p)
			if !slices.Equal(got, eager) {
				t.Fatalf("seed %d, %v deferred: callback order differs from the eager run", seed, p)
			}
			if gotRun != eagerRun {
				t.Fatalf("seed %d, %v deferred: %d events processed, eager run %d", seed, p, gotRun, eagerRun)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestAtCallSeqRejectsWhatWouldReorder(t *testing.T) {
	s := New()
	nop := func(any) {}
	mustPanic(t, "a sequence number never reserved", func() { s.AtCallSeq(0, 0, nop, nil) })

	early := s.ReserveSeq()
	s.At(units.Time(units.Microsecond), func() {
		// The running event took its number after early was reserved, so an
		// event keyed (now, early) belongs before it and can no longer run
		// there.
		mustPanic(t, "scheduling behind the running event", func() { s.AtCallSeq(s.Now(), early, nop, nil) })
		mustPanic(t, "scheduling in the past", func() { s.AtCallSeq(0, early, nop, nil) })
		// Later than now is still ahead, whatever the number.
		s.AtCallSeq(s.Now().Add(units.Microsecond), early, nop, nil)
	})
	s.Run()
	if s.Processed() != 2 {
		t.Fatalf("processed %d events, want 2", s.Processed())
	}
}
