package experiment_test

import (
	"runtime"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
)

// TestPacketCellAllocBudget holds whole cells to an allocation budget per
// 1000 offered MSS packets, where a microbenchmark of one layer cannot see
// another layer's regression: a Fig 8 star cell and a leaf-spine cell shaped
// like bench's leafspine_packet on the packet engine, and cells shaped like
// fattree_flow and leafspine_hybrid (fewer flows) on the fluid engines.
//
// At seed 1 they read 1.4, 6.4, 0.7 and 3.3 mallocs; over seeds 1–6 the
// packet cells read 1.1–1.8 and 5.0–9.5, the fluid ones 0.6–0.7 and 2.8–3.3.
// A flow allocates nothing of its own on any engine
// (TestPacketFlowAllocatesOnlyItsState and
// TestFluidFlowAllocatesOnlyItsState in internal/scenario hold that): its
// completion callback is the closure of a record from the run's free list,
// made only while the flows in flight climb to a new high; a packet flow's
// sender and receiver are carved from the network's flow table, one slab
// per 32 flows, and its out-of-order runs from the table's run arena, one
// slab per 128 runs buffered at once; the fluid engine's recompute scratch
// grows by doubling. The rest is per cell: the packet slabs and the ports,
// each of whose layers (Algorithm 1, DynaQ's counters, the scheduler, the
// port's queues) allocates its object and one array
// (TestSwitchPortBuildAllocations in internal/netsim); a port queue or a
// wire that deepens allocates nothing, as its packets are linked through
// themselves. While each flow made its own completion closure and the
// fluid scratch grew to each new high exactly, seed 1 read 2.6, 7.0, 2.3
// and 4.8, and seeds 1–6 read 1.9–3.1 and 5.4–10.7 on the packet cells,
// 4.1–4.8 on the hybrid one. While each layer kept an array per field and
// the receivers' runs were slices growing by append, seed 1 read 3.2, 11.4,
// 2.3 and 5.1, and seeds 1–6 read 2.4–3.8 and 9.2–17.2 on the packet
// cells. While each flow allocated its own sender and receiver, with both
// kept in per-endpoint maps, seed 1 read 5.7 and 14.7. While each port queue and wire was a ring
// as deep as the deepest it had been, the packet cells read 6.5 and 23.9.
// When each flow still built an arrival closure, a PIAS classifier, a
// retransmission Timer and send method values (or, on the fluid engines, an
// arrival closure and a path slice), seed 1 read 15.0, 31.7, 6.6 and 9.5;
// with a packet free list per endpoint instead of one per network the first
// two read 63 and 150, and before the packet pool, the link's wire FIFO and
// the unboxed SPQ+DRR view the star cell read about 6200. Each budget is its
// seed-1 reading plus about a quarter: a per-flow completion closure put
// back exceeds the star's and both fluid budgets (leafspine's 160 flows
// would add only 1.2), and a single per-flow malloc elsewhere is for the
// per-flow tests to catch. Bytes are bounded too: with one map entry
// per buffered out-of-order segment the star cell read 25 KB per 1000
// offered packets, with the receivers' runs under 10.
func TestPacketCellAllocBudget(t *testing.T) {
	const bytesBudget = 16 * 1024 // bytes allocated per 1000 offered MSS packets
	star := fctCell(experiment.EnginePacket, 250, 0.6, 1)
	star.MaxRuntimeS = 30
	leafSpine := func(engine experiment.EngineMode, flows int) scenario.Document {
		return scenario.Document{
			Kind:         "fct",
			Scheme:       string(experiment.DynaQ),
			Engine:       string(engine),
			Topo:         string(fabric.LeafSpine),
			Leaves:       4,
			Spines:       4,
			HostsPerLeaf: 4,
			RateGbps:     10,
			BufferB:      192000,
			Queues:       8,
			RTTUs:        85.2,
			MTU:          1500,
			Load:         0.6,
			Flows:        flows,
			Workloads:    []string{"websearch"},
			MinRTOMs:     5,
			Seed:         1,
			MaxRuntimeS:  30,
		}
	}
	for _, tc := range []struct {
		name   string
		budget float64 // mallocs per 1000 offered MSS packets
		doc    scenario.Document
	}{
		{"star", 1.8, star},
		{"leafspine", 8, leafSpine(experiment.EnginePacket, 160)},
		{"fattree_flow", 0.9, scenario.Document{
			Kind:        "fct",
			Scheme:      string(experiment.DynaQ),
			Engine:      string(experiment.EngineFlow),
			Topo:        string(fabric.FatTree),
			FatTreeK:    8,
			RateGbps:    10,
			BufferB:     192000,
			Queues:      8,
			RTTUs:       40,
			MTU:         1500,
			Load:        0.6,
			Flows:       1000,
			Workloads:   []string{"websearch"},
			MinRTOMs:    5,
			Seed:        1,
			MaxRuntimeS: 30,
		}},
		{"leafspine_hybrid", 4.1, leafSpine(experiment.EngineHybrid, 1000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cell := func() (mallocs, bytes uint64, kpkt float64) {
				r := loadCell(t, tc.doc)
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				res, err := r.Run()
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				if d := res.Dynamic; d.Completed != tc.doc.Flows {
					t.Fatalf("%d of %d flows completed", d.Completed, tc.doc.Flows)
				}
				mss := units.ByteSize(tc.doc.MTU) - 40
				var pkts int64
				for _, rec := range res.Dynamic.FCT.Records() {
					pkts += int64((rec.Size + mss - 1) / mss)
				}
				return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, float64(pkts) / 1e3
			}
			cell() // warm the process: what the runtime builds once is not the cell's
			mallocs, bytes, kpkt := cell()
			per, perBytes := float64(mallocs)/kpkt, float64(bytes)/kpkt
			t.Logf("%d mallocs and %d bytes for %.0f thousand offered packets: %.1f mallocs and %.1f KB per 1000",
				mallocs, bytes, kpkt, per, perBytes/1024)
			if per > tc.budget {
				t.Errorf("%.1f mallocs per 1000 offered packets, budget %.1f: something on the per-packet or per-flow path allocates again", per, tc.budget)
			}
			if perBytes > bytesBudget {
				t.Errorf("%.1f KB allocated per 1000 offered packets, budget %d KB: per-flow state grows with the packets again",
					perBytes/1024, bytesBudget/1024)
			}
		})
	}
}
