package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"dynaq/internal/faults"
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
		cells["fattree/"+engine] = fattree
	}
	// Sixteen hosts of packet-level data-mining flows are the slowest cell by
	// far; a quarter of the flows still crosses every tier.
	small := cells["fattree/packet"]
	small.Flows = 75
	cells["fattree/packet"] = small
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
	// The static run's fault engine, link counters and guardrail together:
	// loss on the bottleneck egress while queue 1's sender NIC flaps.
	staticFaults := cells["static/guard"]
	staticFaults.Faults = []faults.Spec{
		{Kind: faults.KindLoss, Target: "tor:2", AtS: 0, Rate: 0.001},
		{Kind: faults.KindFlap, Target: "host0:nic", AtS: 0.15, UntilS: 0.35, PeriodS: 0.05, JitterS: 0.005},
	}
	cells["static/faults"] = staticFaults
	// The shared-memory scheme's pool gauges and the queue trace's qlen
	// events and sample counter.
	dt := cells["static/guard"]
	dt.Scheme, dt.Guard, dt.TraceStride = "DT", false, 64
	cells["static/dt_queue_trace"] = dt
	return cells
}

// fileHashes pins one artifact twice. Full is the SHA-256 of the file.
// Simulated is the SHA-256 of what the simulation computed: the file without
// the engine's own diagnostics, which describe how the event loop got there
// (heap depth, event-object reuse, events pending at a heartbeat or at the
// end of a run cut off at a deadline) and may move when the loop is
// restructured. A change that moves Simulated changed a simulated number;
// one that moves only Full changed the engine.
type fileHashes struct {
	Full      string `json:"full"`
	Simulated string `json:"simulated"`
}

var (
	engineSeries     = regexp.MustCompile(`(?m)^\{"series":"(sim_heap_max_depth|sim_event_pool_reuse_total|sim_events_pending)".*\n`)
	heartbeatPending = regexp.MustCompile(`(?m)^(\{.*"kind":"heartbeat".*),"pending":\d+`)
)

// simulated strips the engine diagnostics from one artifact file.
func simulated(file string, data []byte) []byte {
	switch file {
	case telemetry.MetricsFile:
		return engineSeries.ReplaceAll(data, nil)
	case telemetry.EventsFile:
		return heartbeatPending.ReplaceAll(data, []byte("$1"))
	}
	return data
}

func TestSimulatedStripsOnlyEngineDiagnostics(t *testing.T) {
	metrics := []byte(`{"series":"sim_events_processed_total","type":"counter","value":7}
{"series":"sim_heap_max_depth","type":"gauge","value":134}
{"series":"sim_event_pool_reuse_total","type":"counter","value":9}
{"series":"sim_events_pending","type":"gauge","value":56}
{"series":"sim_now_ps","type":"gauge","value":5}
`)
	want := []byte(`{"series":"sim_events_processed_total","type":"counter","value":7}
{"series":"sim_now_ps","type":"gauge","value":5}
`)
	if got := simulated(telemetry.MetricsFile, metrics); !bytes.Equal(got, want) {
		t.Errorf("metrics: got %q", got)
	}
	events := []byte(`{"t_ps":5,"kind":"heartbeat","events":104856,"pending":52}
{"t_ps":6,"kind":"fault","pending":3}
`)
	want = []byte(`{"t_ps":5,"kind":"heartbeat","events":104856}
{"t_ps":6,"kind":"fault","pending":3}
`)
	if got := simulated(telemetry.EventsFile, events); !bytes.Equal(got, want) {
		t.Errorf("events: got %q", got)
	}
}

// TestGoldenArtifacts runs every golden cell through RunCellTo — the path
// the coordinator, the workers and the cache share — and compares both
// hashes of each artifact with the committed table.
func TestGoldenArtifacts(t *testing.T) {
	files := []string{telemetry.EventsFile, telemetry.MetricsFile, telemetry.ManifestFile, telemetry.OutcomeFile}
	got := map[string]map[string]fileHashes{}
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
		got[name] = map[string]fileHashes{}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name][f] = fileHashes{Full: telemetry.Hash(data), Simulated: telemetry.Hash(simulated(f, data))}
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
	var want map[string]map[string]fileHashes
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d cells, the test runs %d (run with -update)", len(want), len(got))
	}
	for name, hashes := range got {
		for _, f := range files {
			if hashes[f].Simulated != want[name][f].Simulated {
				t.Errorf("%s/%s: simulated content sha256 %s, golden %s", name, f, hashes[f].Simulated, want[name][f].Simulated)
			} else if hashes[f].Full != want[name][f].Full {
				t.Errorf("%s/%s: only engine diagnostics moved: sha256 %s, golden %s", name, f, hashes[f].Full, want[name][f].Full)
			}
		}
	}
}
