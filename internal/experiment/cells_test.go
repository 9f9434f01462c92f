package experiment_test

import (
	"encoding/json"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/scenario"
)

// The runner tests describe each cell as a scenario document and run it
// through scenario.Load, as dynaqsim -config and every figure do, so the
// loader is the one place a run's configuration comes from.

// loadCell loads doc as dynaqsim -config would.
func loadCell(t testing.TB, doc scenario.Document) *scenario.Runner {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runCell loads doc and runs it.
func runCell(t testing.TB, doc scenario.Document) *scenario.Result {
	t.Helper()
	res, err := loadCell(t, doc).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// staticCell is a static cell on the §V-A testbed rack under DRR: 1GbE
// links, an 85KB port buffer, a 500µs base RTT and a 10ms RTO floor.
func staticCell(scheme experiment.Scheme, queues int, durationS float64, seed int64, specs ...scenario.Spec) scenario.Document {
	return scenario.Document{
		Kind:      "static",
		Scheme:    string(scheme),
		Sched:     "drr",
		RateGbps:  1,
		BufferB:   85000,
		Queues:    queues,
		RTTUs:     500,
		MTU:       1500,
		MinRTOMs:  10,
		Seed:      seed,
		DurationS: durationS,
		SampleMs:  500,
		Specs:     specs,
	}
}

// fctCell is Fig. 8's quick cell on the testbed rack: 4 servers answering
// one client, SPQ(1)+DRR(4), web-search traffic at the given load.
func fctCell(engine experiment.EngineMode, flows int, load float64, seed int64) scenario.Document {
	return scenario.Document{
		Kind:      "fct",
		Scheme:    string(experiment.DynaQ),
		Engine:    string(engine),
		Topo:      string(fabric.Star),
		Servers:   4,
		RateGbps:  1,
		BufferB:   85000,
		Queues:    5,
		RTTUs:     500,
		MTU:       1500,
		Load:      load,
		Flows:     flows,
		Workloads: []string{"websearch"},
		MinRTOMs:  10,
		Seed:      seed,
	}
}
