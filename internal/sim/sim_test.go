package sim

import (
	"math/rand"
	"sort"
	"testing"

	"dynaq/internal/units"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(30*units.Time(units.Microsecond), func() { got = append(got, 3) })
	s.At(10*units.Time(units.Microsecond), func() { got = append(got, 1) })
	s.At(20*units.Time(units.Microsecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*units.Time(units.Microsecond) {
		t.Fatalf("clock = %v, want 30us", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(units.Time(units.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var fired units.Time
	s.At(units.Time(units.Second), func() {
		s.After(units.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	want := units.Time(units.Second).Add(units.Millisecond)
	if fired != want {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(units.Time(units.Second), func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic when scheduling in the past")
			}
		}()
		s.At(units.Time(units.Millisecond), func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.At(units.Time(units.Second), func() { ran = true })
	s.Cancel(e)
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	// Double-cancel and zero-ref cancel are no-ops.
	s.Cancel(e)
	s.Cancel(EventRef{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var evs []EventRef
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, s.At(units.Time(i)*units.Time(units.Microsecond), func() {
			got = append(got, i)
		}))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		s.Cancel(evs[i])
	}
	s.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("canceled event %d ran", v)
		}
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("events out of order after cancels: %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var ran []int
	s.At(units.Time(units.Second), func() { ran = append(ran, 1) })
	s.At(units.Time(3*units.Second), func() { ran = append(ran, 2) })
	s.RunUntil(units.Time(2 * units.Second))
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v, want [1]", ran)
	}
	if s.Now() != units.Time(2*units.Second) {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(ran) != 2 {
		t.Fatalf("ran = %v, want both", ran)
	}
}

// testTimer is a timer kept as its pending event. fireTestTimer clears the
// handle, as a model's fire function does, counts the firing and re-arms
// the timer while rearms lasts.
type testTimer struct {
	s      *Simulator
	ev     EventRef
	fires  int
	rearms int
}

func fireTestTimer(arg any) {
	tm := arg.(*testTimer)
	tm.ev = EventRef{}
	tm.fires++
	if tm.rearms > 0 {
		tm.rearms--
		tm.s.Rearm(&tm.ev, units.Millisecond, fireTestTimer, tm)
	}
}

func TestTimerRearmReplacesPending(t *testing.T) {
	s := New()
	tm := &testTimer{s: s}
	s.Rearm(&tm.ev, 10*units.Millisecond, fireTestTimer, tm)
	s.Rearm(&tm.ev, 20*units.Millisecond, fireTestTimer, tm) // replaces the first arming
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if tm.fires != 1 {
		t.Fatalf("fires = %d, want 1", tm.fires)
	}
	if s.Now() != units.Time(20*units.Millisecond) {
		t.Fatalf("fired at %v, want 20ms", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	tm := &testTimer{s: s}
	s.Rearm(&tm.ev, units.Millisecond, fireTestTimer, tm)
	if !tm.ev.Pending() {
		t.Fatal("timer should be armed")
	}
	s.Cancel(tm.ev)
	if tm.ev.Pending() {
		t.Fatal("timer should be disarmed")
	}
	s.Run()
	if tm.fires != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	s := New()
	tm := &testTimer{s: s, rearms: 2}
	s.Rearm(&tm.ev, units.Millisecond, fireTestTimer, tm)
	s.Run()
	if tm.fires != 3 || s.Now() != units.Time(3*units.Millisecond) {
		t.Fatalf("fires = %d by %v, want 3 by 3ms", tm.fires, s.Now())
	}
}

func TestEvery(t *testing.T) {
	s := New()
	var ticks []units.Time
	stop := s.Every(10*units.Millisecond, func() { ticks = append(ticks, s.Now()) })
	s.At(units.Time(35*units.Millisecond), func() { stop() })
	s.Run()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %d, want 3 (at 10,20,30ms)", len(ticks))
	}
	for i, tk := range ticks {
		want := units.Time(10*(i+1)) * units.Time(units.Millisecond)
		if tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(units.Time(i)*units.Time(units.Microsecond), func() {})
	}
	s.Run()
	if s.Processed() != 5 {
		t.Fatalf("processed = %d, want 5", s.Processed())
	}
}

func TestHeapRandomizedOrdering(t *testing.T) {
	// Property: for any insertion order, events pop in nondecreasing time.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		var got []units.Time
		n := 200
		for i := 0; i < n; i++ {
			tt := units.Time(rng.Intn(1000)) * units.Time(units.Microsecond)
			s.At(tt, func() { got = append(got, s.Now()) })
		}
		s.Run()
		if len(got) != n {
			t.Fatalf("ran %d events, want %d", len(got), n)
		}
		for i := 1; i < n; i++ {
			if got[i] < got[i-1] {
				t.Fatalf("trial %d: time went backwards: %v < %v", trial, got[i], got[i-1])
			}
		}
	}
}

// TestStaleCancelAfterRecycle is the free-list/Cancel regression test: a ref
// to an event that has fired (or been canceled) and whose Event object has
// been recycled for a NEW callback must never cancel — or otherwise disturb —
// the new event. The generation counter on Event is what detects this.
func TestStaleCancelAfterRecycle(t *testing.T) {
	s := New()
	first := s.At(units.Time(units.Millisecond), func() {})
	s.Run() // first fires; its Event goes to the free list

	secondRan := false
	second := s.At(units.Time(2*units.Millisecond), func() { secondRan = true })
	if second.ev != first.ev {
		t.Fatal("free list did not recycle the fired event (test precondition)")
	}
	s.Cancel(first) // stale ref to the recycled object: must be a no-op
	if !second.Pending() {
		t.Fatal("stale Cancel killed the recycled live event")
	}
	s.Run()
	if !secondRan {
		t.Fatal("recycled event did not fire after stale Cancel")
	}
}

// TestCanceledThenRecycledNeverFiresStaleCallback covers the other direction:
// cancel an event, let its object be recycled, and check that only the new
// callback runs — the canceled one must be gone for good.
func TestCanceledThenRecycledNeverFiresStaleCallback(t *testing.T) {
	s := New()
	staleRan := false
	stale := s.At(units.Time(units.Millisecond), func() { staleRan = true })
	s.Cancel(stale)

	freshRan := false
	fresh := s.At(units.Time(units.Millisecond), func() { freshRan = true })
	if fresh.ev != stale.ev {
		t.Fatal("free list did not recycle the canceled event (test precondition)")
	}
	if stale.Pending() {
		t.Fatal("stale ref claims to be pending after recycle")
	}
	s.Run()
	if staleRan {
		t.Fatal("canceled-then-recycled event fired its stale callback")
	}
	if !freshRan {
		t.Fatal("recycled event did not fire its new callback")
	}
}

func TestPoolReuseGrows(t *testing.T) {
	s := New()
	const n = 100
	var done func()
	count := 0
	done = func() {
		count++
		if count < n {
			s.After(units.Microsecond, done)
		}
	}
	s.After(units.Microsecond, done)
	s.Run()
	if count != n {
		t.Fatalf("ran %d events, want %d", count, n)
	}
	// The first schedule allocates; every re-arm reuses the fired object.
	if got := s.PoolReuse(); got != n-1 {
		t.Fatalf("PoolReuse = %d, want %d", got, n-1)
	}
}

func TestAtCallPassesArg(t *testing.T) {
	s := New()
	type payload struct{ v int }
	var got []int
	deliver := func(a any) { got = append(got, a.(*payload).v) }
	s.AtCall(units.Time(2*units.Microsecond), deliver, &payload{v: 2})
	s.AtCall(units.Time(units.Microsecond), deliver, &payload{v: 1})
	s.AfterCall(3*units.Microsecond, deliver, &payload{v: 3})
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCancelAtCall(t *testing.T) {
	s := New()
	ran := false
	ref := s.AtCall(units.Time(units.Millisecond), func(any) { ran = true }, nil)
	s.Cancel(ref)
	s.Run()
	if ran {
		t.Fatal("canceled AtCall event ran")
	}
}

// TestFourAryHeapStress mixes schedules and cancels at random and checks the
// (when, seq) pop order invariant plus idx bookkeeping across removeAt paths.
func TestFourAryHeapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := New()
		var fired []units.Time
		var refs []EventRef
		for i := 0; i < 500; i++ {
			tt := units.Time(rng.Intn(300)) * units.Time(units.Microsecond)
			refs = append(refs, s.At(tt, func() { fired = append(fired, s.Now()) }))
			if rng.Intn(3) == 0 && len(refs) > 0 {
				s.Cancel(refs[rng.Intn(len(refs))])
			}
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("trial %d: time went backwards: %v < %v", trial, fired[i], fired[i-1])
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left pending", trial, s.Pending())
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(units.Time(j%97)*units.Time(units.Microsecond), func() {})
		}
		s.Run()
	}
}
