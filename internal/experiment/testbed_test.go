package experiment

import (
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// The §V-A testbed the runner tests build on: a 1GbE rack with a
// Broadcom-56538-like 85KB port buffer and a 500µs base RTT.
const (
	testbedRate   = units.Gbps
	testbedDelay  = 125 * units.Microsecond // base RTT 4·125µs = 500µs
	testbedBuffer = 85 * units.KB
	testbedMinRTO = 10 * units.Millisecond
	testbedMTU    = units.ByteSize(1500)
)

func equalWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// testbedFCT is Fig. 8's quick-scale cell without a scheme or load: 4
// servers answering one client, SPQ(1)+DRR(4), web-search traffic.
func testbedFCT(seed int64) DynamicConfig {
	return DynamicConfig{
		Cell: Cell{
			Params: SchemeParams{Weights: equalWeights(5)},
			Rate:   testbedRate,
			Delay:  testbedDelay,
			Buffer: testbedBuffer,
			Queues: 5,
			MTU:    testbedMTU,
			MinRTO: testbedMinRTO,
			Seed:   seed,
		},
		Topo:       TopoStar,
		Servers:    4,
		Flows:      200,
		Workloads:  []*workload.CDF{workload.WebSearch()},
		MaxRuntime: 30 * units.Second,
	}
}

var quick = Options{Scale: Quick, Seed: 1}
