package topology_test

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// build wires g into a packet network on a fresh simulator; err is the
// error of the graph constructor that returned g.
func build(t *testing.T, g *fabric.Graph, err error, cfg topology.Config) *topology.Network {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	n, err := topology.Build(sim.New(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testbedStar builds the paper's testbed-like rack: 1Gbps links, 85KB port
// buffer, ~500µs base RTT (125µs per link), 4 DRR queues.
func testbedStar(t *testing.T, hosts int, admit func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error)) *topology.Network {
	t.Helper()
	g, err := fabric.NewStar(hosts, units.Gbps)
	return build(t, g, err, topology.Config{
		Delay:  125 * units.Microsecond,
		Buffer: 85 * units.KB,
		Queues: 4,
		Factories: topology.Factories{
			NewScheduler: func(n int) (sched.Scheduler, error) {
				return sched.EqualDRR(n, 1500), nil
			},
			NewAdmission: admit,
		},
	})
}

// testLeafSpine builds a two-leaf, two-spine fabric of 10Gbps links with
// 10µs propagation, 192KB port buffers and WRR service queues; cfg supplies
// the queue count, the admission and the routing. Switches are numbered
// leaves first: spine i is Switches[2+i].
func testLeafSpine(t *testing.T, hostsPerLeaf int, cfg topology.Config) *topology.Network {
	t.Helper()
	g, err := fabric.NewLeafSpine(2, 2, hostsPerLeaf, 10*units.Gbps)
	cfg.Delay, cfg.Buffer = 10*units.Microsecond, 192*units.KB
	cfg.NewScheduler = equalWRR
	return build(t, g, err, cfg)
}

// equalWRR is a port scheduler of n equally weighted WRR queues.
func equalWRR(n int) (sched.Scheduler, error) {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1
	}
	return sched.NewWRR(ws)
}

// spines returns a testLeafSpine fabric's spine switches.
func spines(ls *topology.Network) []*netsim.Switch { return ls.Switches[2:] }

func bestEffort(units.ByteSize, int, *buffer.SharedPool) (buffer.Admission, error) {
	return buffer.NewBestEffort(), nil
}

func TestStarConfigValidation(t *testing.T) {
	if _, err := fabric.NewStar(1, units.Gbps); err == nil {
		t.Error("1-host star should fail")
	}
	g, err := fabric.NewStar(3, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topology.Build(sim.New(), g, topology.Config{Buffer: units.KB, Queues: 1}); err == nil {
		t.Error("missing factories should fail")
	}
}

func TestSingleFlowCompletesAtLineRate(t *testing.T) {
	st := testbedStar(t, 2, bestEffort)
	var fct units.Duration
	done := false
	_, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: 10 * units.MB,
		OnComplete: func(d units.Duration) { done = true; fct = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Sim.RunUntil(units.Time(2 * units.Second))
	if !done {
		t.Fatal("10MB flow did not complete in 2s at 1Gbps")
	}
	// Ideal: 10MB·(1500/1460 header overhead) at 1Gbps ≈ 82ms, plus slow
	// start ramp. Anything within 2× ideal proves the pipeline sustains
	// near line rate.
	ideal := units.Seconds(10e6 * 8 * (1500.0 / 1460.0) / 1e9)
	if fct > ideal.Scale(2) {
		t.Fatalf("FCT = %v, want < 2×ideal (%v)", fct, ideal.Scale(2))
	}
	if fct < ideal {
		t.Fatalf("FCT = %v below the physical floor %v", fct, ideal)
	}
}

func TestLongFlowThroughputNearLineRate(t *testing.T) {
	st := testbedStar(t, 2, bestEffort)
	snd, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: 0, // unbounded
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Sim.RunUntil(units.Time(units.Second))
	got := units.Throughput(st.HostPort(1).Stats().TxBytes, units.Second)
	// Goodput ≥ 90% of line rate (headers + ramp-up eat a few percent).
	if got < 900*units.Mbps {
		t.Fatalf("throughput = %v, want ≥ 900Mbps (sender stats: %+v)", got, snd.Stats())
	}
	if got > units.Gbps {
		t.Fatalf("throughput = %v exceeds line rate", got)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	// Two flows from different hosts to one receiver, same class: the
	// bottleneck port must split capacity roughly evenly (same RTT, same
	// transport).
	st := testbedStar(t, 3, bestEffort)
	for i := 0; i < 2; i++ {
		if _, err := st.Endpoints[i].StartFlow(transport.FlowConfig{
			Flow: flowID(1 + i), Dst: 2, Class: 0, Size: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Sim.RunUntil(units.Time(4 * units.Second))
	agg := units.Throughput(st.HostPort(2).Stats().TxBytes, 4*units.Second)
	if agg < 900*units.Mbps {
		t.Fatalf("aggregate = %v, want ≥ 900Mbps (work conservation)", agg)
	}
}

func flowID(i int) packet.FlowID { return packet.FlowID(i) }

func TestLossRecoveryUnderIncast(t *testing.T) {
	// 8 senders incast into one 85KB port: drops are guaranteed; every
	// flow must still complete via fast retransmit/RTO.
	st := testbedStar(t, 9, bestEffort)
	completed := 0
	for i := 0; i < 8; i++ {
		if _, err := st.Endpoints[i].StartFlow(transport.FlowConfig{
			Flow: flowID(100 + i), Dst: 8, Class: 0, Size: 500 * units.KB,
			OnComplete: func(units.Duration) { completed++ },
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Sim.RunUntil(units.Time(30 * units.Second))
	if completed != 8 {
		t.Fatalf("completed = %d/8 flows", completed)
	}
	if st.HostPort(8).Stats().Dropped == 0 {
		t.Fatal("expected drops under incast with an 85KB buffer")
	}
}

func TestDRRQueuesIsolateWithDynaQ(t *testing.T) {
	// Fig. 3's setup end to end: queue 1 with 2 flows vs queue 2 with 16
	// flows under DynaQ must split the 1Gbps bottleneck ≈50/50 (a single
	// flow per queue cannot hold its share pipe through halving on an
	// 85KB buffer — the paper never runs one-flow queues either).
	st := testbedStar(t, 3, func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewDynaQ(b, equalWeights(n))
	})
	for i := 0; i < 2; i++ {
		if _, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
			Flow: flowID(1 + i), Dst: 2, Class: 1, Size: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, err := st.Endpoints[1].StartFlow(transport.FlowConfig{
			Flow: flowID(10 + i), Dst: 2, Class: 2, Size: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Sim.RunUntil(units.Time(5 * units.Second))
	port := st.HostPort(2)
	q1 := float64(port.QueueTxBytes(1))
	q2 := float64(port.QueueTxBytes(2))
	share := q1 / (q1 + q2)
	if share < 0.40 || share > 0.60 {
		t.Fatalf("queue 1 share = %.3f, want ≈0.5 under DynaQ (q1=%v q2=%v)",
			share, units.ByteSize(q1), units.ByteSize(q2))
	}
}

func equalWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestDCTCPWithPerQueueECNBoundsQueue(t *testing.T) {
	// A DCTCP flow against per-queue marking (K=30KB) must keep the
	// bottleneck queue around K and complete without massive loss.
	st := testbedStar(t, 2, func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewPerQueueECN(n, 30*units.KB)
	})
	snd, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: 0, ECN: true, Ctrl: transport.NewDCTCP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Sim.RunUntil(units.Time(units.Second))
	port := st.HostPort(1)
	if port.Stats().Marked == 0 {
		t.Fatal("DCTCP flow saw no ECN marks")
	}
	if snd.Stats().EchoedAcks == 0 {
		t.Fatal("sender saw no congestion echoes")
	}
	got := units.Throughput(port.Stats().TxBytes, units.Second)
	if got < 850*units.Mbps {
		t.Fatalf("DCTCP throughput = %v, want ≥ 850Mbps", got)
	}
	// DCTCP holds the queue near K: the standing queue must stay well
	// under the 85KB port buffer.
	if q := port.QueueLen(0); q > 60*units.KB {
		t.Fatalf("standing queue = %v, want bounded near K=30KB", q)
	}
}

func TestCubicFlowCompletes(t *testing.T) {
	st := testbedStar(t, 2, bestEffort)
	done := false
	if _, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: 5 * units.MB, Ctrl: transport.NewCubic(),
		OnComplete: func(units.Duration) { done = true },
	}); err != nil {
		t.Fatal(err)
	}
	st.Sim.RunUntil(units.Time(5 * units.Second))
	if !done {
		t.Fatal("CUBIC flow did not complete")
	}
}

func TestDuplicateFlowIDRejected(t *testing.T) {
	st := testbedStar(t, 2, bestEffort)
	if _, err := st.Endpoints[0].StartFlow(transport.FlowConfig{Flow: 1, Dst: 1, Size: units.KB}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Endpoints[0].StartFlow(transport.FlowConfig{Flow: 1, Dst: 1, Size: units.KB}); err == nil {
		t.Fatal("duplicate flow id must be rejected")
	}
}

func TestLeafSpineValidation(t *testing.T) {
	if _, err := fabric.NewLeafSpine(1, 2, 2, 10*units.Gbps); err == nil {
		t.Error("1-leaf fabric should fail")
	}
}

func TestLeafSpineCrossRackFlow(t *testing.T) {
	ls := testLeafSpine(t, 2, topology.Config{Queues: 8, Factories: topology.Factories{NewAdmission: bestEffort}})
	done := 0
	// Host 0 (leaf 0) → host 3 (leaf 1): crosses a spine.
	if _, err := ls.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 3, Class: 0, Size: 10 * units.MB, MinRTO: 5 * units.Millisecond,
		OnComplete: func(units.Duration) { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	// Host 1 → host 2, concurrently, other direction pairings.
	if _, err := ls.Endpoints[1].StartFlow(transport.FlowConfig{
		Flow: 2, Dst: 2, Class: 3, Size: 10 * units.MB, MinRTO: 5 * units.Millisecond,
		OnComplete: func(units.Duration) { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	ls.Sim.RunUntil(units.Time(2 * units.Second))
	if done != 2 {
		t.Fatalf("completed = %d/2 cross-rack flows", done)
	}
	if ls.HostPort(3).Stats().TxBytes == 0 {
		t.Fatal("no bytes crossed the destination downlink")
	}
}

func TestLeafSpineIntraRackStaysLocal(t *testing.T) {
	ls := testLeafSpine(t, 2, topology.Config{Queues: 4, Factories: topology.Factories{NewAdmission: bestEffort}})
	done := false
	if _, err := ls.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: units.MB, MinRTO: 5 * units.Millisecond,
		OnComplete: func(units.Duration) { done = true },
	}); err != nil {
		t.Fatal(err)
	}
	ls.Sim.RunUntil(units.Time(units.Second))
	if !done {
		t.Fatal("intra-rack flow did not complete")
	}
	for i, sp := range spines(ls) {
		for p := 0; p < sp.NumPorts(); p++ {
			if sp.Port(p).Stats().TxBytes != 0 {
				t.Fatalf("intra-rack traffic leaked through spine %d", i)
			}
		}
	}
}

func TestTCNWithGenericECNTransport(t *testing.T) {
	// TCN markets itself as "ECN over generic packet scheduling"; it must
	// work with classic RFC 3168 TCP too, not only DCTCP. A single
	// ECN-Reno flow against TCN sojourn marking: bounded queue, marks
	// observed, near line rate, (almost) no drops.
	st := testbedStar(t, 2, func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewTCN(240 * units.Microsecond)
	})
	snd, err := st.Endpoints[0].StartFlow(transport.FlowConfig{
		Flow: 1, Dst: 1, Class: 0, Size: 0, ECN: true, Ctrl: transport.NewECNReno(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Sim.RunUntil(units.Time(2 * units.Second))
	port := st.HostPort(1)
	if port.Stats().Marked == 0 {
		t.Fatal("TCN produced no marks")
	}
	if snd.Stats().EchoedAcks == 0 {
		t.Fatal("ECN-Reno saw no echoes")
	}
	got := units.Throughput(port.Stats().TxBytes, 2*units.Second)
	// Classic ECN halves the window once per marked RTT; with TCN's 240µs
	// sojourn target (~30KB standing) against a 62.5KB BDP, the post-halve
	// window dips below the pipe — the latency/throughput trade-off of
	// coarse ECN signals that §II-B cites as DynaQ's motivation. ~85% is
	// the expected physics; require it not to collapse further.
	if got < 750*units.Mbps {
		t.Fatalf("throughput = %v with ECN-Reno + TCN", got)
	}
	// Classic ECN halves per mark — queue swings more than DCTCP's but
	// must stay bounded well under the buffer on average.
	if q := port.QueueLen(0); q > 70*units.KB {
		t.Fatalf("standing queue = %v", q)
	}
}

func TestECMPSpreadsFlowsAcrossSpines(t *testing.T) {
	s, ls := leafSpine(t)
	// 64 single-packet flows from leaf 0 to leaf 1: their spine choice is
	// a hash of the flow id; both spines must carry a fair share.
	for i := 0; i < 64; i++ {
		if _, err := ls.Endpoints[0].StartFlow(transport.FlowConfig{
			Flow: flowID(1000 + i), Dst: 2, Class: 0, Size: 1000,
			MinRTO: 5 * units.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(units.Time(units.Second))
	var perSpine [2]int64
	for sp, spine := range spines(ls) {
		for p := 0; p < spine.NumPorts(); p++ {
			perSpine[sp] += spine.Port(p).Stats().TxPackets
		}
	}
	total := perSpine[0] + perSpine[1]
	if total == 0 {
		t.Fatal("no packets crossed the spines")
	}
	for sp, n := range perSpine {
		frac := float64(n) / float64(total)
		if frac < 0.25 || frac > 0.75 {
			t.Fatalf("spine %d carried %.0f%% of packets; ECMP skewed (%v)",
				sp, frac*100, perSpine)
		}
	}
}

// TestSwitchMemoryIsPerSwitch builds a leaf-spine under DT: every switch
// draws from its own memory of Buffer bytes, which is the pool each of its
// ports' admission reads, host NICs draw from none, and an incast inside
// leaf 0 never touches leaf 1's memory.
func TestSwitchMemoryIsPerSwitch(t *testing.T) {
	ls := testLeafSpine(t, 3, topology.Config{Queues: 4, Factories: topology.Factories{
		NewAdmission: func(_ units.ByteSize, _ int, mem *buffer.SharedPool) (buffer.Admission, error) {
			return buffer.NewDT(mem, 2)
		},
	}})
	owner := map[*buffer.SharedPool]int{}
	mems := make([]*buffer.SharedPool, len(ls.Switches))
	for sw, nsw := range ls.Switches {
		for i := 0; i < nsw.NumPorts(); i++ {
			p := nsw.Port(i)
			if p.Pool() == nil || p.Pool() != p.Admission().(*buffer.DT).Pool() {
				t.Fatalf("switch %d port %d does not draw from the pool its DT reads", sw, i)
			}
			if i == 0 {
				mems[sw] = p.Pool()
			} else if p.Pool() != mems[sw] {
				t.Fatalf("switch %d port %d draws from another switch's memory", sw, i)
			}
		}
		if other, shared := owner[mems[sw]]; shared {
			t.Fatalf("switches %d and %d share one memory", other, sw)
		}
		owner[mems[sw]] = sw
		if mems[sw].Total() != 192*units.KB {
			t.Fatalf("switch %d memory = %v, want the 192KB buffer", sw, mems[sw].Total())
		}
	}
	for h, host := range ls.Hosts {
		if host.Egress().Pool() != nil {
			t.Fatalf("host %d NIC draws from switch memory", h)
		}
	}

	// Hosts 0 and 1 incast into host 2, all on leaf 0.
	leaf0, leaf1 := mems[0], mems[1]
	var peak units.ByteSize
	for i := 0; i < ls.Switches[0].NumPorts(); i++ {
		ls.Switches[0].Port(i).AddEventHook(func(netsim.PortEvent) {
			peak = max(peak, leaf0.Used())
			if leaf1.Free() != leaf1.Total() {
				t.Fatalf("traffic inside leaf 0 reserved %v of leaf 1's memory", leaf1.Used())
			}
		})
	}
	for src := 0; src < 2; src++ {
		if _, err := ls.Endpoints[src].StartFlow(transport.FlowConfig{
			Flow: flowID(1 + src), Dst: 2, Class: 1, Size: units.MB, MinRTO: 5 * units.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ls.Sim.RunUntil(units.Time(units.Second))
	if peak == 0 {
		t.Fatal("the incast never queued in leaf 0's memory")
	}
}
