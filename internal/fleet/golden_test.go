package fleet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the code under test")

const goldenFile = "testdata/golden.json"

// goldenCells are small cells on every (topology, engine) pair the runner
// serves, plus the fault and guard paths. Their artifact hashes are pinned in
// testdata/golden.json: run-vs-run determinism tests cannot see a refactor
// that changes both runs the same way, a committed hash can.
func goldenCells(t *testing.T) map[string]scenario.Document {
	fct := scenario.Document{
		Kind: "fct", Scheme: "DynaQ", Sched: "spq+drr",
		RateGbps: 10, BufferB: 192000, Queues: 8, RTTUs: 80,
		Load: 0.6, Flows: 300, MinRTOMs: 5, Seed: 1,
		Workloads: []string{"websearch", "datamining", "cache", "hadoop"},
	}
	star, leafspine, fattree := fct, fct, fct
	star.Topo, star.Servers = "star", 4
	star.RateGbps, star.BufferB, star.Queues, star.RTTUs = 1, 85000, 5, 500
	star.Workloads, star.MinRTOMs = []string{"websearch"}, 10
	leafspine.Topo, leafspine.Leaves, leafspine.Spines, leafspine.HostsPerLeaf = "leafspine", 2, 2, 2
	fattree.Topo, fattree.FatTreeK = "fattree", 4

	cells := map[string]scenario.Document{}
	for _, engine := range []string{"packet", "flow", "hybrid"} {
		star.Engine, leafspine.Engine, fattree.Engine = engine, engine, engine
		cells["star/"+engine] = star
		cells["leafspine/"+engine] = leafspine
		if engine != "packet" {
			cells["fattree/"+engine] = fattree
		}
	}
	ecn := star
	ecn.Engine, ecn.Scheme, ecn.DCTCP = "packet", "PMSB", true
	cells["star/packet/PMSB-dctcp"] = ecn

	raw, err := os.ReadFile("../../scenarios/faults_leafspine.json")
	if err != nil {
		t.Fatal(err)
	}
	var faulted scenario.Document
	if err := json.Unmarshal(raw, &faulted); err != nil {
		t.Fatal(err)
	}
	faulted.Flows = 200
	cells["faults_leafspine"] = faulted

	cells["static/guard"] = scenario.Document{
		Kind: "static", Scheme: "DynaQ", Sched: "drr",
		RateGbps: 1, BufferB: 85000, Queues: 4, RTTUs: 500,
		DurationS: 0.5, SampleMs: 100, Seed: 1, Guard: true,
		Specs: []scenario.Spec{{Class: 1, Flows: 2}, {Class: 2, Flows: 8, Ctrl: "cubic"}},
	}
	return cells
}

// TestGoldenArtifacts runs every golden cell through RunCellTo — the path
// the coordinator, the workers and the cache share — and compares the
// SHA-256 of each artifact with the committed table.
func TestGoldenArtifacts(t *testing.T) {
	files := []string{telemetry.EventsFile, telemetry.MetricsFile, telemetry.ManifestFile}
	got := map[string]map[string]string{}
	for name, doc := range goldenCells(t) {
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		hash := telemetry.Hash(body)
		dir := filepath.Join(t.TempDir(), "run")
		man := CellManifest("golden", hash, doc.Scheme, doc.Seed, "golden-"+name)
		if _, err := RunCellTo(dir, body, doc.Scheme, doc.Seed, man, nil, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = map[string]string{}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name][f] = telemetry.Hash(data)
		}
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d cells, the test runs %d (run with -update)", len(want), len(got))
	}
	for name, hashes := range got {
		for _, f := range files {
			if hashes[f] != want[name][f] {
				t.Errorf("%s/%s: sha256 %s, golden %s", name, f, hashes[f], want[name][f])
			}
		}
	}
}
