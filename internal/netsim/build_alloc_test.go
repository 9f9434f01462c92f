package netsim

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// TestSwitchPortBuildAllocations holds the build of one switch port, as a
// leaf-spine cell makes each of its ports, to an allocation budget: DynaQ
// through the scheme table, SPQ+DRR through the scheduler table, then
// NewPort and NewLink. Each layer allocates its object and one array sized
// to the queue count: Algorithm 1's weights, T and S; DynaQ's satisfaction
// counters; the DRR's quantums and deficits, with the DRR held inside the
// SPQ+DRR; the port's queues. The link is one object. That is 9; while
// every layer kept an array per field, and the scheduler table built a
// quantum slice only for NewDRR to copy it, a port took 16.
func TestSwitchPortBuildAllocations(t *testing.T) {
	const (
		queues = 8
		budget = 10
	)
	s := sim.New()
	kind, err := sched.LookupKind("spq+drr")
	if err != nil {
		t.Fatal(err)
	}
	p := buffer.SchemeParams{}.Resolved(10*units.Gbps, 85*units.Microsecond, 1500, nil, queues)
	build := func() {
		schd, err := kind.New(p.Weights, p.MTU, queues)
		if err != nil {
			t.Fatal(err)
		}
		adm, err := buffer.NewScheme("DynaQ", p, 192*units.KB, queues, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPort(s, PortConfig{
			Rate: p.Rate, Buffer: 192 * units.KB, Queues: queues,
			Scheduler: schd, Admission: adm,
			Link: NewLink(s, 10*units.Microsecond, nil),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, build); n > budget {
		t.Fatalf("one switch port allocates %.0f times, budget %d", n, budget)
	} else {
		t.Logf("one switch port allocates %.0f times", n)
	}
}
