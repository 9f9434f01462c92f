package flowsim

import (
	"fmt"
	"math/rand"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

func testConfig(t *testing.T, topo *Topology) Config {
	t.Helper()
	return Config{
		Topo:    topo,
		Queues:  3,
		Weights: []int64{1, 1, 1},
		Buffer:  100 * units.KB,
		MTU:     1500,
		MSS:     1460,
		RTT:     100 * units.Microsecond,
	}
}

// run steps the simulator until want flows completed (or the deadline).
func run(t *testing.T, s *sim.Simulator, e *Engine, want int64, deadline units.Time) {
	t.Helper()
	for e.stats.Completed < want && s.Pending() > 0 && s.Now() < deadline {
		s.Step()
	}
	if e.stats.Completed < want {
		t.Fatalf("completed %d of %d flows by %v", e.stats.Completed, want, s.Now())
	}
}

func TestSingleFlowFCT(t *testing.T) {
	topo, err := NewStar(2, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	e, err := New(s, testConfig(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var fct units.Duration
	e.ScheduleArrival(0, FlowSpec{
		ID: 1, Src: 0, Dst: 1, Class: 1, Size: units.MB,
		OnComplete: func(d units.Duration) { fct = d },
	})
	run(t, s, e, 1, units.Time(units.Second))
	// 1MB at the 1Gbps bottleneck is 8ms; the model adds the base RTT and
	// at most one rate-assignment quantum of startup lag.
	lo, hi := 8*units.Millisecond, 9*units.Millisecond
	if fct < lo || fct > hi {
		t.Fatalf("FCT = %v, want within [%v, %v]", fct, lo, hi)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	topo, err := NewStar(3, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	e, err := New(s, testConfig(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fcts := make([]units.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.ScheduleArrival(0, FlowSpec{
			ID: packet.FlowID(i + 1), Src: i, Dst: 2, Class: 1 + i, Size: units.MB,
			OnComplete: func(d units.Duration) { fcts[i] = d },
		})
	}
	run(t, s, e, 2, units.Time(units.Second))
	// Two 1MB flows into one 1Gbps port: each gets ~500Mbps, so ~16ms.
	for i, fct := range fcts {
		if fct < 15*units.Millisecond || fct > 19*units.Millisecond {
			t.Fatalf("flow %d FCT = %v, want ~16ms", i, fct)
		}
	}
}

// scheduleRandomFlows drives n flows with deterministic pseudo-random
// sizes, sources and arrival times into a star with `hosts` senders.
func scheduleRandomFlows(e *Engine, topo *Topology, n int, seed int64, record func(int, units.Duration)) {
	rng := rand.New(rand.NewSource(seed))
	at := units.Time(0)
	hosts := topo.Hosts()
	for i := 0; i < n; i++ {
		at = at.Add(units.Duration(rng.Int63n(int64(200 * units.Microsecond))))
		src := rng.Intn(hosts - 1)
		size := units.ByteSize(1000 + rng.Int63n(500_000))
		i := i
		e.ScheduleArrival(at, FlowSpec{
			ID: packet.FlowID(i + 1), Src: src, Dst: hosts - 1,
			Class: 1 + i%2, Size: size,
			OnComplete: func(d units.Duration) { record(i, d) },
		})
	}
}

// runEngine executes one full deterministic run and returns every FCT plus
// the final stats, for byte-for-byte comparison across runs.
func runEngine(t *testing.T, hybrid bool, seed int64) ([]units.Duration, Stats) {
	t.Helper()
	topo, err := NewStar(8, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	cfg := testConfig(t, topo)
	if hybrid {
		cfg.Hybrid = true
		cfg.NewAdmission = func() (buffer.Admission, error) {
			return buffer.NewDynaQ(cfg.Buffer, cfg.Weights)
		}
	}
	e, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 200
	fcts := make([]units.Duration, n)
	scheduleRandomFlows(e, topo, n, seed, func(i int, d units.Duration) { fcts[i] = d })
	run(t, s, e, n, units.Time(30*units.Second))
	return fcts, e.Stats()
}

func TestEngineDeterminism(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		name := "flow"
		if hybrid {
			name = "hybrid"
		}
		t.Run(name, func(t *testing.T) {
			a, sa := runEngine(t, hybrid, 7)
			b, sb := runEngine(t, hybrid, 7)
			if sa != sb {
				t.Fatalf("stats differ across identical runs:\n%+v\n%+v", sa, sb)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("flow %d FCT differs: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

func TestHybridIncastDemotesAndRecovers(t *testing.T) {
	topo, err := NewStar(9, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	cfg := testConfig(t, topo)
	cfg.Hybrid = true
	cfg.NewAdmission = func() (buffer.Admission, error) {
		return buffer.NewDynaQ(cfg.Buffer, cfg.Weights)
	}
	e, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// 8 synchronized senders into one port: the canonical incast burst.
	for i := 0; i < 8; i++ {
		e.ScheduleArrival(units.Time(i)*units.Time(units.Microsecond), FlowSpec{
			ID: packet.FlowID(i + 1), Src: i, Dst: 8, Class: 1 + i%2, Size: 200 * units.KB,
			OnComplete: func(units.Duration) {},
		})
	}
	run(t, s, e, 8, units.Time(units.Second))
	st := e.Stats()
	if st.Demotions == 0 {
		t.Fatal("incast burst never demoted the hot port")
	}
	if st.Promotions != st.Demotions {
		t.Fatalf("episodes leaked: %d demotions, %d promotions", st.Demotions, st.Promotions)
	}
	if st.PacketizedPackets == 0 {
		t.Fatal("demoted episode packetized nothing")
	}
}

// TestDemoteAtExactThreshold pins the demotion instant to the byte: with a
// constant 1Gbps of fluid overload into a port whose demote threshold is
// 50KB, the backlog must be exactly 50KB when the episode starts.
func TestDemoteAtExactThreshold(t *testing.T) {
	topo, err := NewStar(3, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	cfg := testConfig(t, topo)
	cfg.Hybrid = true
	cfg.NewAdmission = func() (buffer.Admission, error) {
		return buffer.NewBestEffort(), nil
	}
	e, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.demoteB, e.promoteB = 50*units.KB, 10*units.KB
	// A giant initial window plus a short-flow cutoff above the flow sizes
	// keeps both sources blasting at their 1Gbps path peak throughout, so
	// the hot port sees a constant 2Gbps offered vs 1Gbps drained.
	e.initWindow = units.MB
	e.cutoff = 2 * units.MB
	for i := 0; i < 2; i++ {
		e.ScheduleArrival(0, FlowSpec{
			ID: packet.FlowID(i + 1), Src: i, Dst: 2, Class: 1 + i, Size: units.MB,
			OnComplete: func(units.Duration) {},
		})
	}
	deadline := units.Time(units.Second)
	for e.stats.Demotions == 0 && s.Pending() > 0 && s.Now() < deadline {
		s.Step()
	}
	if e.stats.Demotions == 0 {
		t.Fatal("overloaded port never demoted")
	}
	hot := &e.links[topo.Downlink(2)]
	if !hot.demoted {
		t.Fatal("hot port not in demoted state")
	}
	// The converted backlog is the episode's whole queue at this instant:
	// the demote threshold, to the byte.
	if hot.ep.total != e.demoteB {
		t.Fatalf("queue at demotion = %v, want exactly %v", hot.ep.total, e.demoteB)
	}
	// Rates were assigned one quantum (RTT/4) in, and the 1Gbps excess
	// then needs exactly 400us to build 50KB.
	want := units.Time(0).Add(cfg.RTT / 4).Add(units.Rate(units.Gbps).Transmit(e.demoteB))
	if s.Now() != want {
		t.Fatalf("demotion at %v, want %v", s.Now(), want)
	}
	// Drive on: the episode must eventually drain and promote at (or
	// below) the promote threshold.
	for e.stats.Promotions == 0 && s.Pending() > 0 && s.Now() < deadline {
		s.Step()
	}
	if e.stats.Promotions == 0 {
		t.Fatal("episode never promoted back")
	}
	if hot.demoted {
		t.Fatal("hot port still demoted after promotion")
	}
	if hot.backlog > e.promoteB {
		t.Fatalf("fluid backlog after promotion = %v, above promote threshold %v", hot.backlog, e.promoteB)
	}
}

func BenchmarkFlowEngineFatTree(b *testing.B) {
	topo, err := NewFatTree(8, 10*units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	hosts := topo.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	var flows, recomputes int64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		e, err := New(s, Config{
			Topo:    topo,
			Queues:  3,
			Weights: []int64{1, 1, 1},
			Buffer:  200 * units.KB,
			MTU:     1500,
			MSS:     1460,
			RTT:     40 * units.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		const n = 2000
		at := units.Time(0)
		for f := 0; f < n; f++ {
			at = at.Add(units.Duration(rng.Int63n(int64(5 * units.Microsecond))))
			src := rng.Intn(hosts)
			dst := rng.Intn(hosts - 1)
			if dst >= src {
				dst++
			}
			e.ScheduleArrival(at, FlowSpec{
				ID: packet.FlowID(f + 1), Src: src, Dst: dst,
				Class: 1 + f%2, Size: units.ByteSize(2000 + rng.Int63n(1_000_000)),
				OnComplete: func(units.Duration) {},
			})
		}
		deadline := units.Time(30 * units.Second)
		for e.stats.Completed < n && s.Pending() > 0 && s.Now() < deadline {
			s.Step()
		}
		if e.stats.Completed < n {
			b.Fatalf("completed %d of %d", e.stats.Completed, n)
		}
		flows += e.stats.Completed
		recomputes += e.stats.Recomputes
		e.Close()
	}
	b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(recomputes)/b.Elapsed().Seconds(), "recomputes/s")
}

// BenchmarkHybridEngineStar overloads the star client downlink so demote
// episodes fire: the cost measured includes packetizing fluid backlogs
// through the real scheme admission and promoting back.
func BenchmarkHybridEngineStar(b *testing.B) {
	topo, err := NewStar(9, units.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	weights := []int64{1, 1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	var flows, demotions int64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		e, err := New(s, Config{
			Topo:    topo,
			Queues:  3,
			Weights: weights,
			Buffer:  85 * units.KB,
			MTU:     1500,
			MSS:     1460,
			RTT:     500 * units.Microsecond,
			Hybrid:  true,
			NewAdmission: func() (buffer.Admission, error) {
				return buffer.NewDynaQ(85*units.KB, weights)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		const n = 400
		fcts := make([]units.Duration, n)
		scheduleRandomFlows(e, topo, n, 7, func(i int, d units.Duration) { fcts[i] = d })
		deadline := units.Time(60 * units.Second)
		for e.stats.Completed < n && s.Pending() > 0 && s.Now() < deadline {
			s.Step()
		}
		if e.stats.Completed < n {
			b.Fatalf("completed %d of %d", e.stats.Completed, n)
		}
		flows += e.stats.Completed
		demotions += e.stats.Demotions
		e.Close()
	}
	b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(demotions)/b.Elapsed().Seconds(), "demotions/s")
}

func ExampleEngine() {
	topo, _ := NewStar(2, units.Gbps)
	s := sim.New()
	e, _ := New(s, Config{
		Topo: topo, Queues: 2, Weights: []int64{1, 1},
		Buffer: 100 * units.KB, MTU: 1500, RTT: 100 * units.Microsecond,
	})
	defer e.Close()
	e.ScheduleArrival(0, FlowSpec{
		ID: 1, Src: 0, Dst: 1, Class: 1, Size: 150 * units.KB,
		OnComplete: func(fct units.Duration) { fmt.Println("done in", int64(fct/units.Microsecond), "us") },
	})
	for e.Stats().Completed < 1 && s.Pending() > 0 {
		s.Step()
	}
	// Output: done in 1325 us
}
