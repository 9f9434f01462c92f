package experiment_test

import (
	"runtime"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
)

// TestPacketCellAllocBudget holds the packet engine's per-packet path to its
// allocation budget on whole cells, where a microbenchmark of one layer
// cannot see another layer's regression: a Fig 8 star cell and a leaf-spine
// cell shaped like bench's leafspine_packet. Per 1000 offered MSS packets
// they read about 15 and 33 mallocs; with a packet free list per endpoint
// instead of one per network they read 63 and 150, and before the packet
// pool, the link's wire FIFO and the unboxed SPQ+DRR view the star cell
// read about 6200. What is left is per flow (sender, receiver, timers, the
// FCT record) and the free lists growing to their working size. The budgets
// leave room for that to vary with the seed, not for one allocation per
// endpoint's packet. Bytes are bounded too: with one map entry per buffered
// out-of-order segment the star cell read 25 KB per 1000 offered packets,
// with the receivers' runs under 10.
func TestPacketCellAllocBudget(t *testing.T) {
	const bytesBudget = 16 * 1024 // bytes allocated per 1000 offered MSS packets
	star := fctCell(experiment.EnginePacket, 250, 0.6, 1)
	star.MaxRuntimeS = 30
	for _, tc := range []struct {
		name   string
		budget float64 // mallocs per 1000 offered MSS packets
		doc    scenario.Document
	}{
		{"star", 40, star},
		{"leafspine", 80, scenario.Document{
			Kind:         "fct",
			Scheme:       string(experiment.DynaQ),
			Topo:         string(experiment.TopoLeafSpine),
			Leaves:       4,
			Spines:       4,
			HostsPerLeaf: 4,
			RateGbps:     10,
			BufferB:      192000,
			Queues:       8,
			RTTUs:        85.2,
			MTU:          1500,
			Load:         0.6,
			Flows:        160,
			Workloads:    []string{"websearch"},
			MinRTOMs:     5,
			Seed:         1,
			MaxRuntimeS:  30,
		}},
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
				t.Errorf("%.1f mallocs per 1000 offered packets, budget %.0f: something on the per-packet path allocates again", per, tc.budget)
			}
			if perBytes > bytesBudget {
				t.Errorf("%.1f KB allocated per 1000 offered packets, budget %d KB: per-flow state grows with the packets again",
					perBytes/1024, bytesBudget/1024)
			}
		})
	}
}
