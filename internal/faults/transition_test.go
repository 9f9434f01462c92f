package faults_test

import (
	"strings"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/core"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// blindVictim runs Algorithm 1 on queue lengths that show the arriving
// queue's backlog and read every other queue as empty — the extreme of a
// stale register — so line 3's protection never fires and an active,
// unsatisfied victim is robbed.
type blindVictim struct{ st *core.State }

func (blindVictim) Name() string         { return "BlindVictim" }
func (b blindVictim) State() *core.State { return b.st }
func (b blindVictim) Admit(v buffer.View, cls int, size units.ByteSize) bool {
	res := b.st.Process(cls, size, core.QueueLenFunc(func(i int) units.ByteSize {
		if i == cls {
			return v.QueueLen(i)
		}
		return 0
	}))
	return res.Verdict != core.Drop && v.TotalLen()+size <= v.Buffer()
}

// doubled runs Algorithm 1 as if every packet were twice its size, so an
// adjustment moves twice the bytes the arrival needs.
type doubled struct{ st *core.State }

func (doubled) Name() string         { return "Doubled" }
func (d doubled) State() *core.State { return d.st }
func (d doubled) Admit(v buffer.View, cls int, size units.ByteSize) bool {
	return d.st.Process(cls, 2*size, v).Verdict != core.Drop && v.TotalLen()+size <= v.Buffer()
}

// overloadTwoQueues fills queue 0 to the buffer, then, 50µs into the drain,
// puts victim packets in queue 1 and drives queue 0 past its threshold
// again, so adjustments on queue 0's arrivals pick queue 1 as their victim.
func overloadTwoQueues(s *sim.Simulator, enqueue func(*packet.Packet), victim int) {
	burst := func(class, n int) {
		for i := 0; i < n; i++ {
			enqueue(&packet.Packet{Flow: packet.FlowID(class), Class: class, Size: 1500})
		}
	}
	burst(0, 20)
	s.After(50*units.Microsecond, func() {
		burst(1, victim)
		burst(0, 20)
	})
	s.Run()
}

// TestGuardrailTransitionFlagsAlgorithmBreaches feeds the check schemes that
// move thresholds as Algorithm 1 never would. DynaQ-Tofino is among them on
// purpose: it runs the algorithm on queue lengths refreshed only at dequeue,
// so it robs a victim whose backlog its registers do not yet show.
func TestGuardrailTransitionFlagsAlgorithmBreaches(t *testing.T) {
	tofino, err := buffer.NewDynaQTofino(30*units.KB, []int64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		adm    buffer.Admission
		victim int // packets queue 1 holds before queue 0's burst
		want   string
	}{
		// A busy victim: Algorithm 1 would refuse to rob it.
		{blindVictim{core.MustNew(30*units.KB, []int64{1, 1})}, 8, "robbed active queue 1"},
		{tofino, 8, "robbed active queue 1"},
		// An idle victim: Algorithm 1 would move 1500 bytes, not 3000.
		{doubled{core.MustNew(30*units.KB, []int64{1, 1})}, 0, "thresholds moved"},
	} {
		t.Run(tc.adm.Name(), func(t *testing.T) {
			s := sim.New()
			p, g := newGuardedPort(t, s, 2, tc.adm)
			overloadTwoQueues(s, p.Enqueue, tc.victim)
			if g.Total() == 0 {
				t.Fatal("the guardrail saw no transition breach")
			}
			v := g.Violations()[0]
			if v.Check != "transition" || v.Scheme != tc.adm.Name() || !strings.Contains(v.Msg, tc.want) {
				t.Fatalf("first violation %v, want a %s transition breach naming %q", v, tc.adm.Name(), tc.want)
			}
		})
	}
}

// TestGuardrailTransitionHoldsForAlgorithm1 runs the real scheme through the
// same overload, under both victim policies and with satisfaction below the
// initial thresholds (WBDP), and through SetBuffer re-initialisations
// between bursts: the check must stay silent on every one.
func TestGuardrailTransitionHoldsForAlgorithm1(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"max-extra", nil},
		{"max-threshold", []core.Option{core.WithVictimPolicy(core.VictimMaxThreshold)}},
		{"wbdp", []core.Option{core.WithWBDPSatisfaction(12 * units.KB)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			adm, err := buffer.NewDynaQ(30*units.KB, []int64{1, 2, 1, 4}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			p, g := newGuardedPort(t, s, 4, adm)
			for burst := 0; burst < 3; burst++ {
				// Each queue in turn gets 30 packets at about seven times
				// the line rate, so a queue overflows its threshold while
				// some queues are idle and others still drain.
				for i := 0; i < 120; i++ {
					i := i
					s.After(units.Duration(i)*units.Microsecond, func() {
						p.Enqueue(&packet.Packet{Flow: packet.FlowID(i / 30), Class: (i/30 + burst) % 4, Size: units.ByteSize(200 + i*97%1300)})
					})
				}
				s.Run()
				// From the second burst on B stays 24 KB: the
				// re-initialisation alone must re-base the snapshot.
				if err := adm.State().SetBuffer(24 * units.KB); err != nil {
					t.Fatal(err)
				}
			}
			g.Recheck(s.Now())
			if adm.Adjustments() == 0 {
				t.Fatal("the overload made no adjustment; the check was never exercised")
			}
			if err := g.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
