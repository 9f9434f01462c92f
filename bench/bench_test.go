package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T) config {
	t.Helper()
	return config{seed: 2, seconds: 1, smoke: true, outDir: t.TempDir(), scratch: t.TempDir()}
}

// checkMetrics asserts that every listed metric is present, finite and
// carries its unit.
func checkMetrics(t *testing.T, r *report, defs []metricDef, nonZero bool) {
	t.Helper()
	for _, e := range r.Errors {
		t.Errorf("%s: %s", r.Workload, e)
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s: ops_attempted=%d ops_failed=%d", r.Workload, r.Attempted, r.Failed)
	}
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", r.Workload, d.Name)
		case !finite(s.Median) || s.Median < 0:
			t.Errorf("%s: metric %s = %v", r.Workload, d.Name, s.Median)
		case s.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, d.Name, s.Unit, d.Unit)
		case nonZero && s.Median == 0:
			t.Errorf("%s: metric %s is 0", r.Workload, d.Name)
		}
	}
}

// TestSmoke runs a -smoke size of every workload, untraced and traced, and
// with them every layer driver.
func TestSmoke(t *testing.T) {
	// exercised lists, per workload, per-layer metrics that must not read 0.
	exercised := map[string][]string{
		"star_packet":      {"sim.events", "sim.ceiling_fraction", "core.adjustments", "netsim.pkts_enqueued", "transport.pkts_sent", "experiment.ns_per_pkt", "telemetry.overhead_ratio"},
		"leafspine_packet": {"sim.events", "sim.ceiling_fraction", "netsim.pkts_enqueued", "transport.acks", "experiment.ns_per_pkt"},
		"fattree_flow":     {"flowsim.recomputes", "flowsim.us_per_recompute", "flowsim.max_active"},
		"leafspine_hybrid": {"flowsim.recomputes", "experiment.fct_avg_us"},
		"svc_dispatch":     {"server.submit_ms_p50", "server.lease_ms_p99", "server.complete_ms_p50", "server.leases_granted", "server.cells_completed", "server.upload_bytes_per_cell", "server.metrics_scrape_ms"},
		"svc_cached":       {"server.status_ms_p50", "server.cached_job_ms_p99", "server.cache_hits"},
	}
	drivers := []string{
		"core.process_pass_ns", "core.process_adjust_ns", "buffer.admit_ns.DynaQ", "buffer.admit_ns.TCN",
		"sched.select_ns.drr", "sched.select_ns.spqdrr", "netsim.port_ns_per_pkt",
		"transport.loopback_ns_per_pkt", "flowsim.topology_build_ms", "flowsim.path_ns",
		"workload.flowgen_ns_per_flow", "fairq.push_pop_ns.4t", "fairq.push_pop_ns.64t",
		"fleet.lease_table_ns", "server.cachekey_ns",
	}
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			r := w.run(cfg)
			r.fill(endToEnd)
			checkMetrics(t, r, endToEnd, true)

			r = w.trace(cfg)
			r.fill(perLayer)
			checkMetrics(t, r, perLayer, false)
			for _, name := range append(exercised[w.name], drivers...) {
				if r.Metrics[name].Median == 0 {
					t.Errorf("%s: traced metric %s is 0", w.name, name)
				}
			}
			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))
			if err != nil || len(data) == 0 {
				t.Errorf("%s: span file: %d bytes, err %v", w.name, len(data), err)
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	known := make(map[string]bool)
	for _, w := range workloads() {
		known[w.name] = true
	}
	for _, w := range doc.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound of %s differs from metrics.go (%v)", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// TestContractLine runs one workload the way the driver does and checks the
// JSON object on the last line of its output.
func TestContractLine(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Span files go to bench/out relative to the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		code := realMain([]string{"--workload", "fattree_flow", "--seed", "3", "--seconds", "1",
			"--trace", traced, "-smoke", "-datadir", t.TempDir()}, &out)
		if code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", traced, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res contractResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", traced, err)
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %+v", traced, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s: %+v", traced, d.Name, m)
			}
		}
	}
}

// TestCompare checks that -compare passes a result set against itself and
// fails it against one whose wall time got worse than the bound or whose
// counts moved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, events int64) string {
		r := newReport("star_packet", simWorkUnit)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = one(d.Unit, 100)
		}
		r.Metrics["unit_wall_us"] = one("us", wall)
		r.Counts["sim.events"] = events
		r.Attempted = 10
		data, err := json.Marshal(resultFile{Seed: 1, Seconds: 10, Reports: []*report{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 5)
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", 104, 5)); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, write("slow.json", 140, 5)); code == 0 {
		t.Error("a 40% slowdown passed -compare")
	}
	if code := compareFiles(&out, base, write("moved.json", 100, 6)); code == 0 {
		t.Error("a count mismatch passed -compare")
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "x", "--trace", "1", "--seed", "1", "-trace"}, "trace")
	want := []string{"--workload", "x", "--trace=1", "--seed", "1", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("boolArgs = %v, want %v", got, want)
	}
}
