package topology_test

import (
	"math/rand"
	"reflect"
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

// poolCell is one seeded network run to its end: a scheme row of
// TestPacketConservationAcrossSchemes on its topology, or one of the cells
// added here (the leaf-spine fabric, a lossy and corrupting host link).
type poolCell struct {
	name  string
	mk    func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error)
	graph func() (*fabric.Graph, error)
	lossy bool
}

func poolCells() []poolCell {
	star := func() (*fabric.Graph, error) { return fabric.NewStar(5, units.Gbps) }
	fatTree := func() (*fabric.Graph, error) { return fabric.NewFatTree(4, units.Gbps) }
	leafSpine := func() (*fabric.Graph, error) { return fabric.NewLeafSpine(3, 2, 3, units.Gbps) }
	var cells []poolCell
	for _, sc := range conservationSchemes {
		g := star
		if sc.fatTree {
			g = fatTree
		}
		cells = append(cells, poolCell{name: sc.name, mk: sc.mk, graph: g})
	}
	dynaq := func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewDynaQ(b, equalWeights(n))
	}
	return append(cells,
		poolCell{name: "dynaq-leafspine", mk: dynaq, graph: leafSpine},
		poolCell{name: "dynaq-lossy", mk: dynaq, graph: star, lossy: true},
	)
}

// cellRun is what a drained cell leaves behind.
type cellRun struct {
	fct    map[packet.FlowID]units.Duration
	events uint64
	ports  []netsim.PortStats
	net    *topology.Network
}

// drain builds the cell, lets rewire replace what Build wired, offers 30
// seeded flows to the last host and runs the simulation until nothing is
// left to do.
func drain(t *testing.T, c poolCell, rewire func(*sim.Simulator, *topology.Network)) cellRun {
	t.Helper()
	s := sim.New()
	g, err := c.graph()
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Build(s, g, topology.Config{
		Delay:  125 * units.Microsecond,
		Buffer: 85 * units.KB, Queues: 4,
		Factories: topology.Factories{
			NewScheduler: func(n int) (sched.Scheduler, error) { return sched.EqualDRR(n, 1500), nil },
			NewAdmission: c.mk,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewire != nil {
		rewire(s, net)
	}
	dst := g.Hosts() - 1
	if c.lossy {
		l := net.HostPort(dst).Link()
		l.SetRand(rand.New(rand.NewSource(5)).Float64)
		l.SetLossRate(0.01)
		l.SetCorruptRate(0.01)
	}
	run := cellRun{fct: map[packet.FlowID]units.Duration{}, net: net}
	rng := rand.New(rand.NewSource(11))
	for id := packet.FlowID(1); id <= 30; id++ {
		id, src := id, rng.Intn(dst)
		size := units.ByteSize(1 + rng.Intn(500_000))
		class := rng.Intn(4)
		s.At(units.Time(rng.Intn(500))*units.Time(units.Millisecond), func() {
			if _, err := net.Endpoints[src].StartFlow(transport.FlowConfig{
				Flow: id, Dst: dst, Class: class, Size: size,
				OnComplete: func(fct units.Duration) { run.fct[id] = fct },
			}); err != nil {
				t.Error(err)
			}
		})
	}
	s.Run()
	if len(run.fct) != 30 {
		t.Fatalf("%d of 30 flows completed", len(run.fct))
	}
	run.events = s.Processed()
	net.EachPort(func(_ string, p *netsim.Port) { run.ports = append(run.ports, p.Stats()) })
	return run
}

// TestNetworkPoolConservation drains every cell and requires the network's
// one free list to hold every packet it ever carved: each packet was
// released exactly once, wherever it died — consumed by an endpoint, dropped
// or evicted by a port, lost or corrupted by a link.
func TestNetworkPoolConservation(t *testing.T) {
	for _, c := range poolCells() {
		t.Run(c.name, func(t *testing.T) {
			run := drain(t, c, nil)
			var discarded int64
			for _, st := range run.ports {
				discarded += st.Dropped + st.Evicted + st.DequeueDrops
			}
			if discarded == 0 {
				t.Fatal("no port discarded a packet; the ports' release sites went unexercised")
			}
			pl := run.net.Packets
			if pl.Allocated() == 0 {
				t.Fatal("the network pool never handed out a packet")
			}
			if pl.Idle() != pl.Allocated() {
				t.Fatalf("after the drain the pool holds %d of the %d packets it carved", pl.Idle(), pl.Allocated())
			}
			if c.lossy {
				st := run.net.HostPort(len(run.net.Hosts) - 1).Stats()
				if st.LinkLost == 0 || st.LinkCorrupted == 0 {
					t.Fatalf("the lossy link lost %d and corrupted %d packets; want both", st.LinkLost, st.LinkCorrupted)
				}
			}
		})
	}
}

// perEndpointPools is the wiring before the network shared one pool and one
// flow table: every endpoint has a free list and a flow table of its own, so
// a flow's sender and receiver sit in different tables and no receiver
// retires. Replacing Build's endpoints re-points each host's handler at the
// new one.
func perEndpointPools(s *sim.Simulator, net *topology.Network) {
	for h, host := range net.Hosts {
		net.Endpoints[h] = transport.NewEndpoint(s, host)
	}
}

// TestSharedPoolMatchesPerEndpointPools runs every cell with both wirings:
// which free list a packet comes from, and whether a finished flow's
// receiver retires to a tombstone, must not move a single simulated number.
func TestSharedPoolMatchesPerEndpointPools(t *testing.T) {
	for _, c := range poolCells() {
		t.Run(c.name, func(t *testing.T) {
			shared, own := drain(t, c, nil), drain(t, c, perEndpointPools)
			if shared.events != own.events {
				t.Errorf("events: shared pool %d, per-endpoint pools %d", shared.events, own.events)
			}
			if !reflect.DeepEqual(shared.fct, own.fct) {
				t.Errorf("flow completion times differ:\nshared       %v\nper-endpoint %v", shared.fct, own.fct)
			}
			if !reflect.DeepEqual(shared.ports, own.ports) {
				t.Errorf("port stats differ:\nshared       %+v\nper-endpoint %+v", shared.ports, own.ports)
			}
			if own.net.Packets.Allocated() != 0 {
				t.Errorf("per-endpoint wiring drew %d packets from the network pool", own.net.Packets.Allocated())
			}
		})
	}
}
