package sim

import (
	"testing"

	"dynaq/internal/units"
)

// reportEventsPerSec attaches the engine's events/s throughput to the
// benchmark's result line.
func reportEventsPerSec(b *testing.B, events int) {
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineSchedule is the headline engine benchmark: schedule one
// event, run it, repeat — the re-arm pattern every packet and timer in the
// simulator follows. The acceptance bar is 0 allocs/op: after the first
// iteration the free list serves every schedule.
func BenchmarkEngineSchedule(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(units.Microsecond, fn)
		s.Step()
	}
	reportEventsPerSec(b, b.N)
}

// BenchmarkEngineScheduleDepth64 keeps 64 events pending so every push/pop
// traverses real heap depth instead of hitting an empty heap.
func BenchmarkEngineScheduleDepth64(b *testing.B) {
	s := New()
	fn := func() {}
	const depth = 64
	for j := 0; j < depth; j++ {
		// Stagger deadlines so the heap holds a spread of times.
		s.After(units.Duration(j+1)*units.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(depth*units.Microsecond, fn)
		s.Step()
	}
	reportEventsPerSec(b, b.N)
}

// BenchmarkEngineLane is link propagation: schedule through a fixed-delay
// lane and run, with nothing on the heap.
func BenchmarkEngineLane(b *testing.B) {
	s := New()
	l := s.Lane(units.Microsecond)
	arg := &struct{ n int }{}
	fn := func(a any) { a.(*struct{ n int }).n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Call(fn, arg)
		s.Step()
	}
	reportEventsPerSec(b, b.N)
}

// BenchmarkEngineLaneAndHeap is a packet cell's mix: every other event is a
// lane arrival, the rest re-arm on a heap kept 64 deep, and Step merges the
// two by (when, seq). An op is one event.
func BenchmarkEngineLaneAndHeap(b *testing.B) {
	s := New()
	l := s.Lane(units.Microsecond)
	arg := &struct{ n int }{}
	fnA := func(a any) { a.(*struct{ n int }).n++ }
	const depth = 64
	var rearm func()
	rearm = func() {
		l.Call(fnA, arg)
		s.After(depth*units.Microsecond, rearm)
	}
	for j := 0; j < depth; j++ {
		s.After(units.Duration(j+1)*units.Microsecond, rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	reportEventsPerSec(b, b.N)
}

// BenchmarkEngineAfterCall measures the closure-free scheduling form on the
// heap: package-level func value + recycled arg.
func BenchmarkEngineAfterCall(b *testing.B) {
	s := New()
	arg := &struct{ n int }{}
	fn := func(a any) { a.(*struct{ n int }).n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterCall(units.Microsecond, fn, arg)
		s.Step()
	}
	reportEventsPerSec(b, b.N)
}

// BenchmarkEngineRearm is the transport-retransmission pattern: one
// long-lived timer, kept as its pending event, re-armed on every ACK and
// rarely firing.
func BenchmarkEngineRearm(b *testing.B) {
	s := New()
	var ev EventRef
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rearm(&ev, units.Millisecond, fn, nil)
	}
	b.StopTimer()
	s.Cancel(ev)
}

// BenchmarkEngineCancel schedules and immediately cancels, exercising
// removeAt plus free-list recycling.
func BenchmarkEngineCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.After(units.Microsecond, fn))
	}
}

// TestEngineScheduleZeroAlloc pins the 0 allocs/op acceptance criterion in
// the regular test suite so a regression fails `go test`, not just a human
// reading bench output.
func TestEngineScheduleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := New()
	fn := func() {}
	s.After(units.Microsecond, fn) // warm the free list
	s.Step()
	avg := testing.AllocsPerRun(1000, func() {
		s.After(units.Microsecond, fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+step allocates %.2f per op, want 0", avg)
	}
}

func TestTimerRearmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := New()
	var ev EventRef
	fn := func(any) {}
	s.Rearm(&ev, units.Millisecond, fn, &ev) // warm the free list
	avg := testing.AllocsPerRun(1000, func() {
		s.Rearm(&ev, units.Millisecond, fn, &ev)
	})
	if avg != 0 {
		t.Fatalf("Rearm allocates %.2f per op, want 0", avg)
	}
}
