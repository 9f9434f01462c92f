package experiment

import (
	"runtime"
	"testing"

	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// TestPacketCellAllocBudget holds the packet engine's per-packet path to its
// allocation budget on a whole Fig 8 star cell, where a microbenchmark of
// one layer cannot see another layer's regression: before the packet pool,
// the link's wire FIFO and the unboxed SPQ+DRR view this cell cost about
// 6200 mallocs per 1000 offered MSS packets, after them 61 to 68 — what is
// left is per flow (sender, receiver, timers, the FCT record) and the free
// lists growing to their working size. The budget leaves room for that to
// vary with the seed, not for one allocation per packet. Bytes are bounded
// too: with one map entry per buffered out-of-order segment the cell read
// 25 KB per 1000 offered packets, with the receivers' runs under 10.
func TestPacketCellAllocBudget(t *testing.T) {
	const (
		budget      = 200       // mallocs per 1000 offered MSS packets
		bytesBudget = 16 * 1024 // bytes allocated per 1000 offered MSS packets
	)
	cfg := DynamicConfig{
		Scheme:     DynaQ,
		Params:     SchemeParams{Weights: equalWeights(5)},
		Topo:       TopoStar,
		Servers:    4,
		Rate:       testbedRate,
		Delay:      testbedDelay,
		Buffer:     testbedBuffer,
		Queues:     5,
		MTU:        testbedMTU,
		Load:       0.6,
		Flows:      250,
		Workloads:  []*workload.CDF{workload.WebSearch()},
		MinRTO:     testbedMinRTO,
		Seed:       1,
		MaxRuntime: 30 * units.Second,
	}
	cell := func() (mallocs, bytes uint64, kpkt float64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := RunDynamic(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != cfg.Flows {
			t.Fatalf("%d of %d flows completed", res.Completed, cfg.Flows)
		}
		mss := testbedMTU - 40
		var pkts int64
		for _, rec := range res.FCT.Records() {
			pkts += int64((rec.Size + mss - 1) / mss)
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, float64(pkts) / 1e3
	}
	cell() // warm the process: what the runtime builds once is not the cell's
	mallocs, bytes, kpkt := cell()
	per, perBytes := float64(mallocs)/kpkt, float64(bytes)/kpkt
	t.Logf("%d mallocs and %d bytes for %.0f thousand offered packets: %.1f mallocs and %.1f KB per 1000",
		mallocs, bytes, kpkt, per, perBytes/1024)
	if per > budget {
		t.Errorf("%.1f mallocs per 1000 offered packets, budget %d: something on the per-packet path allocates again", per, budget)
	}
	if perBytes > bytesBudget {
		t.Errorf("%.1f KB allocated per 1000 offered packets, budget %d KB: per-flow state grows with the packets again",
			perBytes/1024, bytesBudget/1024)
	}
}
