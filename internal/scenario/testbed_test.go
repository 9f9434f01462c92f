package scenario

import (
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
)

// load loads doc as dynaqsim -config would: the engine-seam tests describe
// their cells as documents and then call the seam on the loaded Runner.
func load(t testing.TB, doc Document) *Runner {
	t.Helper()
	r, err := Load(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testbedFCT is Fig. 8's quick cell on the §V-A testbed rack without a
// scheme or load: 4 servers answering one client over 1GbE links, an 85KB
// port buffer, a 500µs base RTT, SPQ(1)+DRR(4), web-search traffic.
func testbedFCT(seed int64) Document {
	return Document{
		Kind:        "fct",
		Topo:        string(fabric.Star),
		Servers:     4,
		RateGbps:    1,
		BufferB:     85000,
		Queues:      5,
		RTTUs:       500,
		MTU:         1500,
		MinRTOMs:    10,
		Seed:        seed,
		Flows:       200,
		Workloads:   []string{"websearch"},
		MaxRuntimeS: 30,
	}
}

// requestResponseCell is ext-closedloop's cell: the testbed rack under
// request/response traffic.
func requestResponseCell(scheme experiment.Scheme, load float64, seed int64, requests int) Document {
	doc := testbedFCT(seed)
	doc.RequestResponse = true
	doc.Scheme, doc.Load, doc.Flows = string(scheme), load, requests
	doc.MaxRuntimeS = 60
	return doc
}

// smallLeafSpine is a 2×2 leaf-spine cell with two hosts per leaf, running
// Fig. 13's fabric parameters and workloads.
func smallLeafSpine() Document {
	return Document{
		Kind:         "fct",
		Scheme:       string(experiment.DynaQ),
		Topo:         string(fabric.LeafSpine),
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		RateGbps:     10,
		BufferB:      192000,
		Queues:       8,
		RTTUs:        42.6,
		MTU:          1500,
		MinRTOMs:     5,
		Seed:         3,
		Load:         0.6,
		Flows:        40,
		Workloads:    []string{"websearch", "datamining", "cache", "hadoop"},
	}
}
