package experiment_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// telemetryFiles are the artifacts that must be byte-identical across two
// runs of the same (scenario, seed) — the acceptance bar for the whole
// telemetry layer. port_events.jsonl is covered separately in internal/metrics.
var telemetryFiles = []string{
	telemetry.EventsFile,
	telemetry.MetricsFile,
	telemetry.ManifestFile,
}

// runStaticWithTelemetry executes one instrumented static run into dir and
// returns the artifact bytes keyed by file name.
func runStaticWithTelemetry(t *testing.T, dir string, scheme experiment.Scheme) map[string][]byte {
	t.Helper()
	run, err := telemetry.NewRun(dir, telemetry.Manifest{
		Tool:         "determinism_test",
		ScenarioHash: telemetry.Hash([]byte("determinism " + string(scheme))),
		Seed:         7,
		Scheme:       string(scheme),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := loadCell(t, scenario.Document{
		Kind:      "static",
		Scheme:    string(scheme),
		Sched:     "drr",
		RateGbps:  1,
		BufferB:   200000,
		Queues:    2,
		Weights:   []int64{1, 1},
		RTTUs:     80,
		MTU:       1500,
		DurationS: 0.1,
		SampleMs:  10,
		Seed:      7,
		Specs:     []scenario.Spec{{Class: 0, Flows: 2}, {Class: 1, Flows: 4}},
	})
	r.SetTelemetry(run)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	run.Summarize("drops", strconv.FormatInt(res.Static.Drops, 10))
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, dir)
}

func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(telemetryFiles))
	for _, name := range telemetryFiles {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 && name != telemetry.EventsFile {
			t.Fatalf("%s: empty artifact", name)
		}
		out[name] = data
	}
	return out
}

// TestTelemetryDeterministicStatic runs the same instrumented static
// scenario twice per scheme and demands byte-identical artifacts — the
// telemetry layer may observe the simulation but must never perturb it,
// and its encoding must be a pure function of simulation state.
func TestTelemetryDeterministicStatic(t *testing.T) {
	for _, scheme := range []experiment.Scheme{experiment.DynaQ, experiment.PQL, experiment.BestEffort} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			a := runStaticWithTelemetry(t, filepath.Join(base, "a"), scheme)
			b := runStaticWithTelemetry(t, filepath.Join(base, "b"), scheme)
			for _, name := range telemetryFiles {
				if string(a[name]) != string(b[name]) {
					t.Errorf("%s: artifacts differ between identical runs", name)
				}
			}
			if len(a[telemetry.EventsFile]) == 0 {
				t.Error("events.jsonl is empty; heartbeat/sampler events missing")
			}
		})
	}
}

// TestEngineCountersInMetrics asserts the engine series land in
// metrics.jsonl: events processed, heap high-water mark, and the free-list
// reuse counter — and that the heap, whose events are the only ones reused,
// holds a small share of what runs.
func TestEngineCountersInMetrics(t *testing.T) {
	arts := runStaticWithTelemetry(t, t.TempDir(), experiment.DynaQ)
	metrics := string(arts[telemetry.MetricsFile])
	for _, series := range []string{
		"sim_events_processed_total",
		"sim_heap_max_depth",
		"sim_event_pool_reuse_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics.jsonl is missing %s", series)
		}
	}
	// Serialization completions and link arrivals, nearly every event of a
	// packet run, wait in the simulator's lanes and take no Event object;
	// the heap holds only timers and flow arrivals, so reuse stays a small
	// share of processed events.
	var processed, reused int64
	for _, line := range strings.Split(metrics, "\n") {
		var rec struct {
			Series string `json:"series"`
			Value  int64  `json:"value"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		switch rec.Series {
		case "sim_events_processed_total":
			processed = rec.Value
		case "sim_event_pool_reuse_total":
			reused = rec.Value
		}
	}
	if processed == 0 {
		t.Fatal("sim_events_processed_total = 0; metrics not parsed")
	}
	if reused == 0 || reused*10 >= processed {
		t.Errorf("pool reuse %d out of %d events; want under 10%%: packet events are on the heap", reused, processed)
	}
}

// TestTelemetryDeterministicDynamic does the same for an FCT run on the
// star topology, exercising the flow-accounting and histogram paths.
func TestTelemetryDeterministicDynamic(t *testing.T) {
	runOnce := func(dir string) map[string][]byte {
		run, err := telemetry.NewRun(dir, telemetry.Manifest{
			Tool:         "determinism_test",
			ScenarioHash: telemetry.Hash([]byte("determinism fct")),
			Seed:         3,
			Scheme:       string(experiment.DynaQ),
		})
		if err != nil {
			t.Fatal(err)
		}
		r := loadCell(t, scenario.Document{
			Kind:      "fct",
			Scheme:    string(experiment.DynaQ),
			Topo:      string(fabric.Star),
			Servers:   4,
			RateGbps:  1,
			BufferB:   200000,
			Queues:    4,
			RTTUs:     80,
			Load:      0.4,
			Flows:     40,
			Workloads: []string{"websearch"},
			Seed:      3,
		})
		r.SetTelemetry(run)
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
		return readArtifacts(t, dir)
	}
	base := t.TempDir()
	a := runOnce(filepath.Join(base, "a"))
	b := runOnce(filepath.Join(base, "b"))
	for _, name := range telemetryFiles {
		if string(a[name]) != string(b[name]) {
			t.Errorf("%s: artifacts differ between identical runs", name)
		}
	}
}

// TestRunSeedsParallelParity is the satellite acceptance test: the same
// aggregate stats bit-for-bit at -parallel 1 and -parallel 8, on a real
// (if tiny) simulation workload.
func TestRunSeedsParallelParity(t *testing.T) {
	metric := func(o experiment.Options) (float64, error) {
		data, err := json.Marshal(scenario.Document{
			Kind:      "static",
			Scheme:    string(experiment.DynaQ),
			Sched:     "drr",
			RateGbps:  1,
			BufferB:   200000,
			Queues:    2,
			Weights:   []int64{1, 1},
			RTTUs:     80,
			MTU:       1500,
			DurationS: 0.05,
			Seed:      o.Seed,
			Specs:     []scenario.Spec{{Class: 0, Flows: 2}, {Class: 1, Flows: 4}},
		})
		if err != nil {
			return 0, err
		}
		r, err := scenario.Load(data)
		if err != nil {
			return 0, err
		}
		res, err := r.Run()
		if err != nil {
			return 0, err
		}
		return float64(res.Static.AvgAggregate(10*units.Time(units.Millisecond), 50*units.Time(units.Millisecond))), nil
	}
	seq := experiment.Options{Seed: 42, Parallel: 1}
	par := experiment.Options{Seed: 42, Parallel: 8}
	a, err := experiment.RunSeeds(4, seq, metric)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiment.RunSeeds(4, par, metric)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual compares the float fields bitwise, which is exactly the
	// parity contract (and sidesteps float-eq lint on ==).
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats differ across worker counts:\n  sequential: %+v\n  parallel:   %+v", a, b)
	}
}
