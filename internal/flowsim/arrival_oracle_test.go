package flowsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dynaq/internal/fabric"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// scheduleArrivalClosure is ScheduleArrival as it was before arrivals came
// from a free list, kept verbatim as the oracle: one closure per flow.
func scheduleArrivalClosure(e *Engine, at units.Time, spec FlowSpec) {
	e.s.At(at, func() { e.startFlow(spec) })
}

// parentPath is a flow's path as startFlow built it before paths were carved
// from an arena, kept verbatim: a slice of its own per flow.
func parentPath(e *Engine, spec FlowSpec) []int32 {
	return e.topo.Path(spec.Src, spec.Dst, fabric.Hash(uint64(spec.ID)), make([]int32, 0, 6))
}

// lockstepRun is one engine of a lockstep pair: its simulator and the FCT
// each of its flows completed with.
type lockstepRun struct {
	s    *sim.Simulator
	e    *Engine
	fcts []units.Duration
}

func newLockstepRun(tb testing.TB, p program, schedule func(e *Engine, at units.Time, spec FlowSpec)) *lockstepRun {
	tb.Helper()
	s := sim.New()
	e, err := New(s, p.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := &lockstepRun{s: s, e: e, fcts: make([]units.Duration, len(p.flows))}
	for i, spec := range p.flows {
		i := i
		spec.OnComplete = func(d units.Duration) { r.fcts[i] = d }
		schedule(e, p.at[i], spec)
	}
	return r
}

// flowView is a flow's engine state without its completion callback, which
// differs between the two runs of a pair by construction.
func flowView(f fflow) fflow {
	f.spec.OnComplete = nil
	return f
}

// checkArrivalsMatchClosure plays p twice in lockstep, once through
// ScheduleArrival and once through the closure oracle, and compares the two
// after every Step: the clock, the event counts, the run counters, every
// flow's state and FCT, and every link's fluid state. Every flow's path must
// also be the one the parent built for it, so a path carved over another in
// the arena shows at the Step it happens.
func checkArrivalsMatchClosure(tb testing.TB, p program) {
	tb.Helper()
	got := newLockstepRun(tb, p, (*Engine).ScheduleArrival)
	want := newLockstepRun(tb, p, scheduleArrivalClosure)
	defer got.e.Close()
	defer want.e.Close()
	paths := make([][]int32, len(p.flows))
	for i, spec := range p.flows {
		paths[i] = parentPath(want.e, spec)
	}
	deadline := units.Time(10 * units.Second)
	total := int64(len(p.flows))
	for step := 0; want.e.stats.Completed < total && want.s.Pending() > 0 && want.s.Now() < deadline; step++ {
		want.s.Step()
		got.s.Step()
		where := fmt.Sprintf("%s step %d at %v", p.name, step, want.s.Now())
		if got.s.Now() != want.s.Now() || got.s.Processed() != want.s.Processed() || got.s.Pending() != want.s.Pending() {
			tb.Fatalf("%s: clock %v, %d run, %d pending; closure oracle %v, %d run, %d pending",
				where, got.s.Now(), got.s.Processed(), got.s.Pending(), want.s.Now(), want.s.Processed(), want.s.Pending())
		}
		if got.e.stats != want.e.stats {
			tb.Fatalf("%s: stats %+v, closure oracle %+v", where, got.e.stats, want.e.stats)
		}
		if !slices.Equal(got.e.active, want.e.active) {
			tb.Fatalf("%s: active flows %v, closure oracle %v", where, got.e.active, want.e.active)
		}
		if len(got.e.flows) != len(want.e.flows) {
			tb.Fatalf("%s: %d flows started, closure oracle %d", where, len(got.e.flows), len(want.e.flows))
		}
		// A flow changes only while it is active, and on the Step that
		// starts or completes it, which the newest flow and the FCTs show.
		check := slices.Clip(got.e.active)
		if n := len(got.e.flows); n > 0 {
			check = append(check, int32(n-1))
		}
		for _, i := range check {
			g, w := &got.e.flows[i], &want.e.flows[i]
			if !reflect.DeepEqual(flowView(*g), flowView(*w)) {
				tb.Fatalf("%s: flow %d is %+v, closure oracle %+v", where, i, flowView(*g), flowView(*w))
			}
			if path := paths[g.spec.ID-1]; !slices.Equal(g.path, path) { // a program's flow ids are 1, 2, ...
				tb.Fatalf("%s: flow %d's path reads %v, built as %v", where, i, g.path, path)
			}
		}
		for i := range got.e.links {
			g, w := &got.e.links[i], &want.e.links[i]
			if g.cap != w.cap || g.inRate != w.inRate || g.backlog != w.backlog || g.demoted != w.demoted {
				tb.Fatalf("%s: link %d is %+v, closure oracle %+v", where, i, *g, *w)
			}
		}
		if !slices.Equal(got.fcts, want.fcts) {
			tb.Fatalf("%s: FCTs %v, closure oracle %v", where, got.fcts, want.fcts)
		}
	}
	if want.e.stats.Completed < total {
		tb.Fatalf("%s: completed %d of %d flows by %v", p.name, want.e.stats.Completed, total, want.s.Now())
	}
	for i := range got.e.flows {
		g, w := &got.e.flows[i], &want.e.flows[i]
		if !reflect.DeepEqual(flowView(*g), flowView(*w)) || !slices.Equal(g.path, paths[g.spec.ID-1]) {
			tb.Fatalf("%s at the end: flow %d is %+v, closure oracle %+v, path built as %v", p.name, i, flowView(*g), flowView(*w), paths[g.spec.ID-1])
		}
	}
}

// TestArrivalsMatchClosure plays seeded programs of every kind through
// ScheduleArrival's free list and the closure it replaced, step for step. It
// also schedules a program's arrivals as a run does, each at the instant the
// previous one starts, so the free list is drained and refilled rather than
// only grown.
func TestArrivalsMatchClosure(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		checkArrivalsMatchClosure(t, genProgram(t, int(seed%numKinds), seed))
	}
	p := genProgram(t, kindLeafSpine, 5)
	for _, chained := range []bool{false, true} {
		var runs [2]*lockstepRun
		for k, schedule := range []func(*Engine, units.Time, FlowSpec){(*Engine).ScheduleArrival, scheduleArrivalClosure} {
			s := sim.New()
			e, err := New(s, p.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := &lockstepRun{s: s, e: e, fcts: make([]units.Duration, len(p.flows))}
			var next func(i int)
			next = func(i int) {
				if i == len(p.flows) {
					return
				}
				spec := p.flows[i]
				spec.OnComplete = func(d units.Duration) { r.fcts[i] = d }
				if !chained {
					schedule(e, p.at[i], spec)
					next(i + 1)
					return
				}
				s.At(p.at[i], func() {
					schedule(e, s.Now(), spec)
					next(i + 1)
				})
			}
			next(0)
			for e.stats.Completed < int64(len(p.flows)) && s.Pending() > 0 {
				s.Step()
			}
			e.Close()
			runs[k] = r
		}
		if runs[0].s.Processed() != runs[1].s.Processed() || !slices.Equal(runs[0].fcts, runs[1].fcts) {
			t.Fatalf("chained %v: %d events and FCTs %v, closure oracle %d events and %v",
				chained, runs[0].s.Processed(), runs[0].fcts, runs[1].s.Processed(), runs[1].fcts)
		}
		if chained && len(runs[0].e.arrivals) != 1 {
			t.Fatalf("arrivals scheduled as they start left %d records on the free list, want 1", len(runs[0].e.arrivals))
		}
	}
}

func FuzzArrivalsMatchClosure(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed%numKinds))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		checkArrivalsMatchClosure(t, genProgram(t, int(kind)%numKinds, seed))
	})
}
