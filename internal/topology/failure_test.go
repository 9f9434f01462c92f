package topology_test

import (
	"testing"

	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// TestLinkFailureRecovery injects a 300ms outage on the receiver's downlink
// mid-flow: every in-flight packet blackholes, the sender falls into RTO
// with exponential backoff, and once the link heals the flow must finish.
func TestLinkFailureRecovery(t *testing.T) {
	st := testbedStar(t, 2, bestEffort)
	done := false
	var fct units.Duration
	snd, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: 20 * units.MB,
		OnComplete: func(d units.Duration) { done = true; fct = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	link := st.HostPort(1).Link()
	st.Sim.At(units.Time(50*units.Millisecond), func() { link.SetDown(true) })
	st.Sim.At(units.Time(350*units.Millisecond), func() { link.SetDown(false) })
	st.Sim.RunUntil(units.Time(10 * units.Second))
	if !done {
		t.Fatalf("flow did not recover from the outage (sender: %+v)", snd.Stats())
	}
	if link.Lost() == 0 {
		t.Fatal("no packets blackholed during the outage")
	}
	if link.Down() {
		t.Fatal("link still down")
	}
	if snd.Stats().Timeouts == 0 {
		t.Fatal("outage should force RTO timeouts")
	}
	// FCT = ideal transfer (~170ms) + outage (300ms) + backoff overshoot;
	// anything past 5s would mean recovery stalled.
	if fct > 5*units.Second {
		t.Fatalf("recovery took %v", fct)
	}
}

// TestFailedSpineReroutesNothing documents ECMP behavior under failure:
// flows hashed to a dead spine stall until the path heals (static ECMP has
// no rerouting — the simulator models what the paper's fabric would do).
func TestFailedSpineStallsAffectedFlows(t *testing.T) {
	s, ls := leafSpine(t)
	// Find two flows hashing to different spines by probing flow ids.
	const probes = 8
	results := make(map[int]bool) // flow id → completed
	for id := 1; id <= probes; id++ {
		id := id
		if _, err := ls.Endpoints[0].StartFlow(transport.FlowConfig{
			Flow: flowID(id), Dst: 3, Class: 0, Size: 200 * units.KB,
			MinRTO:     5 * units.Millisecond,
			OnComplete: func(units.Duration) { results[id] = true },
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Cut every uplink of spine 0 after 1ms.
	s.At(units.Time(units.Millisecond), func() {
		spine0 := spines(ls)[0]
		for p := 0; p < spine0.NumPorts(); p++ {
			spine0.Port(p).Link().SetDown(true)
		}
	})
	s.RunUntil(units.Time(2 * units.Second))
	completed := len(results)
	if completed == 0 || completed == probes {
		t.Fatalf("completed = %d/%d; ECMP should split probes across spines "+
			"(flows on the dead spine stall, the rest finish)", completed, probes)
	}
	// Some completed, some stalled: exactly the static-ECMP failure mode.
}

// TestFailureAwareECMPReroutesAroundDeadSpine is the counterpart of the
// static-ECMP test above: with failure-aware routing, flows hashed to the
// dead spine re-hash onto the surviving one after the detection delay, so
// every probe completes instead of stranding.
func TestFailureAwareECMPReroutesAroundDeadSpine(t *testing.T) {
	s, ls := leafSpineAware(t, true, 500*units.Microsecond)
	const probes = 8
	results := make(map[int]bool)
	for id := 1; id <= probes; id++ {
		id := id
		if _, err := ls.Endpoints[0].StartFlow(transport.FlowConfig{
			Flow: flowID(id), Dst: 3, Class: 0, Size: 200 * units.KB,
			MinRTO:     5 * units.Millisecond,
			OnComplete: func(units.Duration) { results[id] = true },
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Whole-switch failure of spine 0 via its incident-link group: both its
	// downlinks and the leaves' uplinks toward it go dark at 1ms.
	reg := ls.FaultRegistry()
	eng := faults.NewEngine(s, reg, 1)
	if err := eng.Schedule([]faults.Spec{{Kind: "down", Target: "spine0", AtS: 0.001}}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(units.Time(2 * units.Second))
	if completed := len(results); completed != probes {
		t.Fatalf("completed = %d/%d; failure-aware ECMP should reroute every "+
			"flow off the dead spine after the detection delay", completed, probes)
	}
	if len(eng.Timeline()) == 0 {
		t.Fatal("fault engine applied no transitions")
	}
}

// TestFailureAwareECMPMatchesStaticWhenClean: on a fault-free network the
// failure-aware route function must pick exactly the spines static ECMP
// picks, so enabling the feature cannot perturb clean-network results.
func TestFailureAwareECMPMatchesStaticWhenClean(t *testing.T) {
	run := func(aware bool) map[int]units.Duration {
		s, ls := leafSpineAware(t, aware, 500*units.Microsecond)
		fcts := make(map[int]units.Duration)
		for id := 1; id <= 6; id++ {
			id := id
			if _, err := ls.Endpoints[0].StartFlow(transport.FlowConfig{
				Flow: flowID(id), Dst: 3, Class: 0, Size: 100 * units.KB,
				OnComplete: func(d units.Duration) { fcts[id] = d },
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(units.Time(2 * units.Second))
		return fcts
	}
	static, aware := run(false), run(true)
	if len(static) != 6 || len(aware) != 6 {
		t.Fatalf("completions: static %d, aware %d, want 6 each", len(static), len(aware))
	}
	for id, d := range static {
		if aware[id] != d {
			t.Fatalf("flow %d: clean-network FCT diverged: static %v, aware %v", id, d, aware[id])
		}
	}
}

// leafSpine builds a small fabric for failure tests.
func leafSpine(t *testing.T) (*sim.Simulator, *topology.Network) {
	return leafSpineAware(t, false, 0)
}

func leafSpineAware(t *testing.T, aware bool, detect units.Duration) (*sim.Simulator, *topology.Network) {
	t.Helper()
	ls := testLeafSpine(t, 2, topology.Config{
		Queues:       4,
		FailureAware: aware, DetectionDelay: detect,
		Factories: topology.Factories{NewAdmission: bestEffort},
	})
	return ls.Sim, ls
}

// fatTree builds a k=4 fat tree on the packet engine.
func fatTree(t *testing.T, aware bool) (*sim.Simulator, *topology.Network) {
	t.Helper()
	g, err := fabric.NewFatTree(4, 10*units.Gbps)
	net := build(t, g, err, topology.Config{
		Delay: 10 * units.Microsecond, Buffer: 192 * units.KB, Queues: 4,
		FailureAware: aware, DetectionDelay: 500 * units.Microsecond,
		Factories: topology.Factories{
			NewScheduler: equalWRR,
			NewAdmission: bestEffort,
		},
	})
	return net.Sim, net
}

// TestFatTreeHopsFollowPath sends one packet between every host pair of the
// packet fat tree and checks that exactly the switch ports on the graph's
// Path — forward for the data, reverse for the ACK — transmitted: the wiring
// and the fluid engine's path oracle agree hop for hop.
func TestFatTreeHopsFollowPath(t *testing.T) {
	s, net := fatTree(t, false)
	g := net.Graph
	tx := func() []int64 {
		out := make([]int64, g.NumLinks())
		for sw, nsw := range net.Switches {
			for p := 0; p < nsw.NumPorts(); p++ {
				out[g.PortLink(sw, p)] = nsw.Port(p).Stats().TxPackets
			}
		}
		return out
	}
	var id packet.FlowID
	for src := 0; src < g.Hosts(); src++ {
		for dst := 0; dst < g.Hosts(); dst++ {
			if src == dst {
				continue
			}
			id++
			before := tx()
			done := false
			if _, err := net.Endpoints[src].StartFlow(transport.FlowConfig{
				Flow: id, Dst: dst, Size: units.KB,
				OnComplete: func(units.Duration) { done = true },
			}); err != nil {
				t.Fatal(err)
			}
			s.RunUntil(s.Now().Add(units.Millisecond))
			if !done {
				t.Fatalf("flow %d->%d did not complete", src, dst)
			}
			want := make([]int64, g.NumLinks())
			for _, li := range g.Path(src, dst, uint64(id), nil)[1:] {
				want[li]++
			}
			for _, li := range g.Path(dst, src, uint64(id), nil)[1:] {
				want[li]++
			}
			for li, after := range tx() {
				if after-before[li] != want[li] {
					t.Fatalf("flow %d %d->%d: link %s sent %d packets, Path says %d",
						id, src, dst, g.LinkName(li), after-before[li], want[li])
				}
			}
		}
	}
}

// TestFailureAwareECMPAvoidsDownedAggUplink is the generic form of the
// dead-spine test: on the fat tree the failed link is two hops from the
// sender, so the edge must look through its aggregation switch and the
// aggregation switch must re-hash its own uplinks. Static ECMP strands the
// flows hashed onto the link; failure-aware routing loses nothing once the
// detection delay has passed.
func TestFailureAwareECMPAvoidsDownedAggUplink(t *testing.T) {
	run := func(aware bool) (completed int, lostAfterDetection int64) {
		s, net := fatTree(t, aware)
		eng := faults.NewEngine(s, net.FaultRegistry(), 1)
		if err := eng.Schedule([]faults.Spec{{Kind: "down", Target: "agg0.0:core0.0", AtS: 0.001}}); err != nil {
			t.Fatal(err)
		}
		link, err := net.FaultRegistry().Resolve("agg0.0:core0.0")
		if err != nil {
			t.Fatal(err)
		}
		// Host 0 (pod 0) to host 4 (pod 1), started after detection.
		s.At(units.Time(2*units.Millisecond), func() {
			for id := 1; id <= 32; id++ {
				if _, err := net.Endpoints[0].StartFlow(transport.FlowConfig{
					Flow: flowID(id), Dst: 4, Size: 50 * units.KB, MinRTO: 5 * units.Millisecond,
					OnComplete: func(units.Duration) { completed++ },
				}); err != nil {
					t.Error(err)
				}
			}
		})
		s.RunUntil(units.Time(units.Second))
		return completed, link[0].Lost()
	}
	if completed, lost := run(false); completed == 32 || lost == 0 {
		t.Fatalf("static ECMP: %d/32 completed, %d packets lost; the probes never hashed onto the downed link", completed, lost)
	}
	if completed, lost := run(true); completed != 32 || lost != 0 {
		t.Fatalf("failure-aware ECMP: %d/32 completed, %d packets lost on the downed link after detection", completed, lost)
	}
}
