package faults_test

import (
	"reflect"
	"testing"

	"dynaq/internal/faults"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// countNode counts deliveries.
type countNode struct{ received int }

func (n *countNode) Receive(*packet.Packet) { n.received++ }

func TestSpecValidate(t *testing.T) {
	valid := []faults.Spec{
		{Kind: "down", Target: "a", AtS: 0.1},
		{Kind: "down", Target: "a", AtS: 0.1, UntilS: 0.2},
		{Kind: "up", Target: "a", AtS: 0},
		{Kind: "flap", Target: "a", AtS: 0.1, UntilS: 0.5, PeriodS: 0.1},
		{Kind: "flap", Target: "a", AtS: 0.1, UntilS: 0.5, PeriodS: 0.1, JitterS: 0.02},
		{Kind: "loss", Target: "a", AtS: 0, Rate: 0.01},
		{Kind: "corrupt", Target: "a", AtS: 0, UntilS: 1, Rate: 0.5},
		{Kind: "down", Target: "a", AtS: 9e6},                                    // inside 64-bit picoseconds
		{Kind: "flap", Target: "a", AtS: 0, UntilS: 1, PeriodS: 2e-5},            // 100 000 toggles
		{Kind: "flap", Target: "a", AtS: 1e6, UntilS: 1e6 + 1e-3, PeriodS: 2e-3}, // one toggle, late
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	invalid := []faults.Spec{
		{Kind: "down", AtS: 0.1},                                                        // no target
		{Kind: "meteor", Target: "a", AtS: 0.1},                                         // unknown kind
		{Kind: "down", Target: "a", AtS: -1},                                            // negative time
		{Kind: "down", Target: "a", AtS: 0.2, UntilS: 0.1},                              // until before at
		{Kind: "flap", Target: "a", AtS: 0.1, UntilS: 0.1, PeriodS: 0.1},                // empty window
		{Kind: "flap", Target: "a", AtS: 0.1, UntilS: 0.5},                              // no period
		{Kind: "flap", Target: "a", AtS: 0.1, UntilS: 0.5, PeriodS: 0.1, JitterS: 0.05}, // jitter ≥ period/2
		{Kind: "loss", Target: "a", AtS: 0},                                             // no rate
		{Kind: "loss", Target: "a", AtS: 0, Rate: 1},                                    // rate = 1
		{Kind: "corrupt", Target: "a", AtS: 0, Rate: -0.1},                              // negative rate
		{Kind: "down", Target: "a", AtS: 1e7},                                           // past 64-bit picoseconds
		{Kind: "loss", Target: "a", AtS: 0, UntilS: 1e300, Rate: 0.1},                   // heals past them
		{Kind: "flap", Target: "a", AtS: 0, UntilS: 1000, PeriodS: 1e-9},                // 2e12 toggles
		{Kind: "flap", Target: "a", AtS: 1e6, UntilS: 1e6 + 1e-9, PeriodS: 1e-12},       // a step that cannot move at_s
	}
	for i, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec %d accepted: %+v", i, s)
		}
	}
}

func TestRegistryResolve(t *testing.T) {
	s := sim.New()
	reg := faults.NewRegistry()
	la := netsim.NewLink(s, 0, &countNode{})
	lb := netsim.NewLink(s, 0, &countNode{})
	reg.AddLink("a", la)
	reg.AddLink("b", lb)
	reg.AddGroup("sw", "a", "b")

	if got, err := reg.Resolve("a"); err != nil || len(got) != 1 || got[0] != la {
		t.Fatalf("Resolve(a) = %v, %v", got, err)
	}
	if got, err := reg.Resolve("sw"); err != nil || len(got) != 2 {
		t.Fatalf("Resolve(sw) = %v, %v", got, err)
	}
	if _, err := reg.Resolve("nope"); err == nil {
		t.Fatal("Resolve of unknown target succeeded")
	}
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"a", "b", "sw"}) {
		t.Fatalf("Names() = %v", got)
	}

	for name, fn := range map[string]func(){
		"duplicate link":  func() { reg.AddLink("a", lb) },
		"duplicate group": func() { reg.AddGroup("sw") },
		"group over link": func() { reg.AddGroup("a", "b") },
		"dangling member": func() { reg.AddGroup("g2", "missing") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// buildEngine wires two links and a group and schedules the given specs.
func buildEngine(t *testing.T, seed int64, specs []faults.Spec) (*sim.Simulator, *faults.Engine, []*netsim.Link) {
	t.Helper()
	s := sim.New()
	reg := faults.NewRegistry()
	la := netsim.NewLink(s, 10*units.Microsecond, &countNode{})
	lb := netsim.NewLink(s, 10*units.Microsecond, &countNode{})
	reg.AddLink("a", la)
	reg.AddLink("b", lb)
	reg.AddGroup("sw", "a", "b")
	e := faults.NewEngine(s, reg, seed)
	if err := e.Schedule(specs); err != nil {
		t.Fatal(err)
	}
	return s, e, []*netsim.Link{la, lb}
}

func TestEngineDownUpAndGroup(t *testing.T) {
	specs := []faults.Spec{
		{Kind: "down", Target: "a", AtS: 0.001, UntilS: 0.003},
		{Kind: "down", Target: "sw", AtS: 0.005},
		{Kind: "up", Target: "sw", AtS: 0.006},
	}
	s, e, links := buildEngine(t, 1, specs)

	type probe struct {
		atS  float64
		want [2]bool // down state of a, b
	}
	probes := []probe{
		{0.0005, [2]bool{false, false}},
		{0.002, [2]bool{true, false}},
		{0.004, [2]bool{false, false}},
		{0.0055, [2]bool{true, true}},
		{0.007, [2]bool{false, false}},
	}
	for _, pr := range probes {
		pr := pr
		s.At(units.Time(0).Add(units.Seconds(pr.atS)), func() {
			for i, l := range links {
				if l.Down() != pr.want[i] {
					t.Errorf("t=%vs link %d down=%v, want %v", pr.atS, i, l.Down(), pr.want[i])
				}
			}
		})
	}
	s.Run()

	tl := e.Timeline()
	if len(tl) != 4 {
		t.Fatalf("timeline has %d transitions, want 4: %v", len(tl), tl)
	}
	if tl[0].Target != "a" || tl[0].Action != "down" || tl[0].At != units.Time(units.Millisecond) {
		t.Fatalf("first transition = %+v", tl[0])
	}
}

func TestEngineLossIsDeterministic(t *testing.T) {
	run := func(seed int64) (int64, []faults.Transition) {
		specs := []faults.Spec{{Kind: "loss", Target: "a", AtS: 0, Rate: 0.3, UntilS: 0.002}}
		s, e, links := buildEngine(t, seed, specs)
		for i := 0; i < 500; i++ {
			pkt := &packet.Packet{Flow: 1, Size: 1500}
			s.At(units.Time(i)*units.Time(5*units.Microsecond), func() { links[0].Send(pkt) })
		}
		s.Run()
		return links[0].Lost(), e.Timeline()
	}

	lost1, tl1 := run(42)
	lost2, tl2 := run(42)
	if lost1 != lost2 {
		t.Fatalf("same seed lost %d vs %d packets", lost1, lost2)
	}
	if !reflect.DeepEqual(tl1, tl2) {
		t.Fatalf("same seed produced different timelines:\n%v\n%v", tl1, tl2)
	}
	if lost1 == 0 || lost1 == 500 {
		t.Fatalf("loss rate 0.3 lost %d of 500 packets", lost1)
	}
	// The loss window closes at 2ms: the tail of the probes (≥ 2ms) must
	// all be delivered.
	if tl1[len(tl1)-1].Action != "loss=0" {
		t.Fatalf("last transition = %+v, want loss=0", tl1[len(tl1)-1])
	}

	lost3, _ := run(43)
	if lost3 == lost1 {
		t.Logf("note: seeds 42 and 43 lost the same count (%d); not necessarily a bug", lost1)
	}
}

func TestEngineFlapTimelineReplay(t *testing.T) {
	specs := []faults.Spec{
		{Kind: "flap", Target: "a", AtS: 0.001, UntilS: 0.01, PeriodS: 0.002, JitterS: 0.0004},
		{Kind: "corrupt", Target: "b", AtS: 0, Rate: 0.05},
	}
	run := func() []faults.Transition {
		s, e, _ := buildEngine(t, 7, specs)
		s.Run()
		return e.Timeline()
	}
	tl1 := run()
	tl2 := run()
	if !reflect.DeepEqual(tl1, tl2) {
		t.Fatalf("flap replay diverged:\n%v\n%v", tl1, tl2)
	}
	if len(tl1) < 5 {
		t.Fatalf("flap produced only %d transitions: %v", len(tl1), tl1)
	}
	// The window must end healed.
	last := tl1[len(tl1)-1]
	if last.Action != "up" || last.At != units.Time(10*units.Millisecond) {
		t.Fatalf("flap did not heal at until_s: %+v", last)
	}
	// A different seed must shift the jittered toggles.
	s2, e2, _ := func() (*sim.Simulator, *faults.Engine, []*netsim.Link) {
		return buildEngine(t, 8, specs)
	}()
	s2.Run()
	if reflect.DeepEqual(tl1, e2.Timeline()) {
		t.Fatal("different seeds produced identical jittered flap timelines")
	}
}

func TestEngineRejectsBadSchedule(t *testing.T) {
	s := sim.New()
	reg := faults.NewRegistry()
	reg.AddLink("a", netsim.NewLink(s, 0, &countNode{}))
	e := faults.NewEngine(s, reg, 1)

	if err := e.Schedule([]faults.Spec{{Kind: "down", Target: "ghost", AtS: 0}}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if err := e.Schedule([]faults.Spec{{Kind: "meteor", Target: "a", AtS: 0}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if s.Pending() != 0 {
		t.Fatalf("failed Schedule armed %d events", s.Pending())
	}
}
