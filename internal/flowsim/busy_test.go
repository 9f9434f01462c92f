package flowsim

import (
	"testing"

	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// refAdvanceLinks is advance's link loop as it stood before the busy set,
// kept verbatim as the oracle: every link, in order.
func (e *Engine) refAdvanceLinks(dt units.Duration) {
	for i := range e.links {
		l := &e.links[i]
		if l.demoted {
			continue
		}
		switch {
		case l.inRate > l.cap:
			prev := l.backlog
			l.backlog += (l.inRate - l.cap).BytesIn(dt)
			if l.backlog > e.cfg.Buffer {
				e.stats.FluidDropBytes += int64(l.backlog - e.cfg.Buffer)
				l.backlog = e.cfg.Buffer
				e.fluidOverflow(i)
			}
			if prev < e.demoteB && l.backlog >= e.demoteB {
				e.stats.ThresholdCrossings++
				if e.cfg.Hybrid {
					e.demote(i)
				}
			}
		case l.backlog > 0:
			drained := (l.cap - l.inRate).BytesIn(dt)
			if drained >= l.backlog {
				l.backlog = 0
			} else {
				l.backlog -= drained
			}
		}
	}
}

// refNextCrossing is armCrossing's walk as it stood before the busy set,
// kept verbatim except that it returns the instant it would arm (MaxTime
// for a stopped timer) instead of arming, so checking it moves no event.
func (e *Engine) refNextCrossing() units.Time {
	best := units.MaxTime
	now := e.s.Now()
	horizon := units.MaxTime.Sub(now)
	for i := range e.links {
		l := &e.links[i]
		if l.demoted || l.inRate <= l.cap || l.backlog >= e.demoteB {
			continue
		}
		d := (l.inRate - l.cap).Transmit(e.demoteB - l.backlog)
		if d >= horizon {
			continue // crossing projects past the horizon; wait for a tick
		}
		if t := now.Add(d + units.Picosecond); t < best {
			best = t
		}
	}
	return best
}

// uncovered returns the first fluid link that holds a queue or an overload
// but is missing from the busy set, or -1.
func (e *Engine) uncovered() int {
	for i := range e.links {
		l := &e.links[i]
		if !l.demoted && (l.inRate > l.cap || l.backlog > 0) && e.busy[i>>6]&(1<<uint(i&63)) == 0 {
			return i
		}
	}
	return -1
}

// walkTwin copies the engine's links and busy set into a fluid-only engine
// with no flows, dt past the live one's last advance, so a walk over it
// has no side effect beyond the links and the drop and crossing counters.
func (e *Engine) walkTwin(dt units.Duration) *Engine {
	cfg := e.cfg
	cfg.Hybrid = false
	t := &Engine{
		s: sim.New(), cfg: cfg, demoteB: e.demoteB,
		links:       append([]linkState(nil), e.links...),
		busy:        append([]uint64(nil), e.busy...),
		lastAdvance: e.s.Now(),
	}
	t.s.RunUntil(e.s.Now().Add(dt))
	return t
}

// probeSteps are the spans the walk check integrates over: one picosecond,
// a fraction of a quantum, and spans long enough to overflow a buffer.
var probeSteps = []units.Duration{units.Picosecond, 3 * units.Microsecond, 30 * units.Microsecond, 2 * units.Millisecond}

// checkBusySet is the per-Step oracle: the busy set covers every fluid
// link with a queue or an overload; the crossing the busy walk arms is the
// full walk's; a busy walk over a copy of the links leaves them, and the
// counters it keeps, exactly as the full walk does, with the set still
// covering them afterwards; and the live walk ran in ascending link order.
func checkBusySet(tb testing.TB, name string) func(*Engine) {
	step := 0
	var owner []int32  // each flow's episode owner before the Step
	var demoted []bool // each link's demoted flag before the Step
	return func(e *Engine) {
		step++
		// A walk demotes in ascending link order, so a flow that had no
		// episode owner is owned by the lowest link it crosses among those
		// the Step demoted. Flows the Step started enroll in path order.
		for fi, was := range owner {
			f := &e.flows[fi]
			if was >= 0 || f.epOwner < 0 || f.activeIdx < 0 {
				continue
			}
			first := int32(-1)
			for _, l := range f.path {
				if e.links[l].demoted && !demoted[l] && (first < 0 || l < first) {
					first = l
				}
			}
			if first >= 0 && f.epOwner != first {
				tb.Fatalf("%s step %d at %v: flow %d is owned by link %d, want %d, the lowest link on its path the walk demoted",
					name, step, e.s.Now(), fi, f.epOwner, first)
			}
		}
		owner = owner[:0]
		for fi := range e.flows {
			owner = append(owner, e.flows[fi].epOwner)
		}
		if demoted == nil {
			demoted = make([]bool, len(e.links))
		}
		for i := range e.links {
			demoted[i] = e.links[i].demoted
		}
		if i := e.uncovered(); i >= 0 {
			l := &e.links[i]
			tb.Fatalf("%s step %d at %v: link %d (inRate %v, cap %v, backlog %v) missing from the busy set",
				name, step, e.s.Now(), i, l.inRate, l.cap, l.backlog)
		}
		if got, want := e.nextCrossing(), e.refNextCrossing(); got != want {
			tb.Fatalf("%s step %d at %v: busy walk arms the crossing at %v, full walk at %v", name, step, e.s.Now(), got, want)
		}
		dt := probeSteps[step%len(probeSteps)]
		busy, full := e.walkTwin(dt), e.walkTwin(dt)
		busy.advance()
		full.refAdvanceLinks(dt)
		if busy.stats != full.stats {
			tb.Fatalf("%s step %d at %v, walk of %v: busy walk counts %+v, full walk %+v", name, step, e.s.Now(), dt, busy.stats, full.stats)
		}
		for i := range busy.links {
			if busy.links[i] != full.links[i] {
				tb.Fatalf("%s step %d at %v, walk of %v: link %d is %+v after the busy walk, %+v after the full walk",
					name, step, e.s.Now(), dt, i, busy.links[i], full.links[i])
			}
		}
		if i := busy.uncovered(); i >= 0 {
			tb.Fatalf("%s step %d at %v, walk of %v: link %d left the busy set still holding %v at %v offered",
				name, step, e.s.Now(), dt, i, busy.links[i].backlog, busy.links[i].inRate)
		}
	}
}

// TestBusySetCoversFullWalk plays seeded programs of every kind with the
// busy-set oracle after every Step. It also checks that the programs reach
// what the set is most fragile on: fluid buffer overflows, promotions that
// hand residual backlog back to the fluid, and single Steps demoting
// several links, where the walk order decides episode ownership.
func TestBusySetCoversFullWalk(t *testing.T) {
	var drops int64
	var residual, multi int
	for seed := int64(1); seed <= 36; seed++ {
		p := genProgram(t, int(seed%numKinds), seed)
		check := checkBusySet(t, p.name)
		var demotions int64
		var wasDemoted []bool
		_, st := runProgram(t, p, func(e *Engine) {
			check(e)
			if e.stats.Demotions-demotions > 1 {
				multi++
			}
			demotions = e.stats.Demotions
			if wasDemoted == nil {
				wasDemoted = make([]bool, len(e.links))
			}
			for i := range e.links {
				l := &e.links[i]
				if wasDemoted[i] && !l.demoted && l.backlog > 0 {
					residual++
				}
				wasDemoted[i] = l.demoted
			}
		})
		drops += st.FluidDropBytes
	}
	if drops == 0 || residual == 0 || multi == 0 {
		t.Fatalf("programs too tame: %d fluid drop bytes, %d promotions with residual backlog, %d Steps demoting several links",
			drops, residual, multi)
	}
}

func FuzzBusySetCoversFullWalk(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed%numKinds))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		p := genProgram(t, int(kind)%numKinds, seed)
		runProgram(t, p, checkBusySet(t, p.name))
	})
}
