package dynaq_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dynaq/internal/faults"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
)

// entry is one catalogued series or event kind.
type entry struct {
	name    string
	kind    string // counter | gauge | histogram | event | stream
	unit    string
	meaning string
	emitter string // the function that registers or emits it
}

// catalogue names every series a cell or dynaqd registers, every event
// kind a cell writes to events.jsonl, and every line kind dynaqd's
// coordinator writes to a job's event stream. Cells register theirs in
// internal/scenario/telemetry.go (static.go's samplers emit the throughput
// and qlen events); dynaqd registers its own in internal/coord. A name that
// dynaqtop or a CI step reads must be here. dynaqd's /metrics also re-exports
// every cell counter it ran locally as dynaqd_sim_<series>; those are the
// cell counters below under a prefix, not entries of their own.
var catalogue = []entry{
	// The event loop (scenario hooks.observe), every cell.
	{"sim_events_processed_total", "counter", "events", "events the loop has fired", "scenario hooks.observe"},
	{"sim_events_pending", "gauge", "events", "events scheduled and not yet fired", "scenario hooks.observe"},
	{"sim_heap_max_depth", "gauge", "events", "high-water mark of the event heap", "scenario hooks.observe"},
	{"sim_event_pool_reuse_total", "counter", "events", "events served from the free list instead of allocated", "scenario hooks.observe"},
	{"sim_now_ps", "gauge", "ps", "the virtual clock", "scenario hooks.observe"},
	{"heartbeat", "event", "", "sim-time progress tick: events fired and pending, 20 per horizon", "scenario startHeartbeat"},

	// Every switch port of a packet cell, labelled port (and queue).
	{"port_enqueued_total", "counter", "packets", "packets admitted to the port's buffer", "scenario portSeries"},
	{"port_tx_packets_total", "counter", "packets", "packets put on the wire", "scenario portSeries"},
	{"port_tx_bytes_total", "counter", "bytes", "bytes put on the wire", "scenario portSeries"},
	{"port_marked_total", "counter", "packets", "packets CE-marked", "scenario portSeries"},
	{"port_misclassified_total", "counter", "packets", "packets with an out-of-range class, served by the last queue", "scenario portSeries"},
	{"port_drops_total", "counter", "packets", "packets discarded, by cause: admission, pool, dequeue, evict, link, corrupt", "scenario portSeries"},
	{"port_occupancy_bytes", "gauge", "bytes", "bytes buffered over all queues", "scenario portSeries"},
	{"port_buffer_bytes", "gauge", "bytes", "the port's buffer size B", "scenario portSeries"},
	{"queue_occupancy_bytes", "gauge", "bytes", "bytes buffered in one service queue", "scenario portSeries"},
	{"queue_tx_bytes_total", "counter", "bytes", "bytes one service queue has put on the wire", "scenario portSeries"},
	{"queue_drops_total", "counter", "packets", "packets one service queue refused at enqueue", "scenario portSeries"},
	{"dynaq_threshold_bytes", "gauge", "bytes", "Algorithm 1's threshold T_i (DynaQ family)", "scenario portSeries"},
	{"dynaq_satisfaction_bytes", "gauge", "bytes", "Algorithm 1's satisfaction S_i (DynaQ family)", "scenario portSeries"},
	{"dynaq_satisfied", "gauge", "0/1", "whether queue i is satisfied (DynaQ family)", "scenario portSeries"},
	{"dynaq_adjustments_total", "counter", "adjustments", "threshold moves Algorithm 1 made (DynaQ)", "scenario portSeries"},
	{"dynaq_algorithm_drops_total", "counter", "packets", "arrivals Algorithm 1 refused to protect another queue (DynaQ)", "scenario portSeries"},
	{"dynaq_satisfied_transitions_total", "counter", "transitions", "queue i's satisfied/unsatisfied edges (DynaQ)", "scenario portSeries"},
	{"pool_used_bytes", "gauge", "bytes", "shared switch memory in use (shared-memory schemes)", "scenario portSeries"},
	{"pool_total_bytes", "gauge", "bytes", "shared switch memory size (shared-memory schemes)", "scenario portSeries"},

	// The packet network's hosts, faults and guardrail.
	{"transport_sent_packets_total", "counter", "packets", "data packets sent, all senders", "scenario packetWorld.instrument"},
	{"transport_sent_bytes_total", "counter", "bytes", "data bytes sent, all senders", "scenario packetWorld.instrument"},
	{"transport_retransmits_total", "counter", "packets", "retransmitted packets, all senders", "scenario packetWorld.instrument"},
	{"transport_timeouts_total", "counter", "timeouts", "retransmission timeouts, all senders", "scenario packetWorld.instrument"},
	{"transport_fast_recoveries_total", "counter", "recoveries", "fast-recovery entries, all senders", "scenario packetWorld.instrument"},
	{"transport_echoed_acks_total", "counter", "acks", "ACKs carrying an ECN echo, all senders", "scenario packetWorld.instrument"},
	{"transport_acks_total", "counter", "acks", "ACKs sent, all receivers", "scenario packetWorld.instrument"},
	{"transport_cwnd_bytes", "gauge", "bytes", "congestion windows summed over live flows", "scenario packetWorld.instrument"},
	{"transport_flows_active", "gauge", "flows", "flows started and not finished", "scenario packetWorld.instrument"},
	{"faults_transitions_total", "counter", "transitions", "fault transitions applied (cells with a fault schedule)", "scenario packetWorld.instrument"},
	{"faults_link_lost_total", "counter", "packets", "packets the faulted links blackholed", "scenario packetWorld.instrument"},
	{"faults_link_corrupted_total", "counter", "packets", "frames the faulted links corrupted", "scenario packetWorld.instrument"},
	{"guard_violations_total", "counter", "violations", "invariant violations the guardrail saw (guard cells)", "scenario packetWorld.instrument"},
	{"fault", "event", "", "one applied fault transition: target and action", "scenario packetWorld.instrument"},

	// The fluid and hybrid engines.
	{"flowsim_recomputes_total", "counter", "recomputes", "water-filling rate recomputations", "scenario fluidEngine.instrument"},
	{"flowsim_demotions_total", "counter", "links", "links switched from fluid to packetized episodes", "scenario fluidEngine.instrument"},
	{"flowsim_promotions_total", "counter", "links", "packetized episodes returned to fluid", "scenario fluidEngine.instrument"},
	{"flowsim_packetized_packets_total", "counter", "packets", "packets simulated inside packetized episodes", "scenario fluidEngine.instrument"},
	{"flowsim_packetized_drops_total", "counter", "packets", "packets the scheme dropped inside packetized episodes", "scenario fluidEngine.instrument"},
	{"flowsim_packetized_marks_total", "counter", "packets", "packets the scheme marked inside packetized episodes", "scenario fluidEngine.instrument"},
	{"flowsim_fluid_drop_bytes_total", "counter", "bytes", "fluid bytes dropped at full buffers", "scenario fluidEngine.instrument"},
	{"flowsim_threshold_crossings_total", "counter", "crossings", "queue-threshold crossings the fluid engine scheduled", "scenario fluidEngine.instrument"},

	// An fct cell's flows.
	{"flows_generated_total", "counter", "flows", "flows the arrival processes started", "scenario fctSeries"},
	{"flows_completed_total", "counter", "flows", "flows that finished", "scenario fctSeries"},
	{"fct_us", "histogram", "us", "flow completion times, decade buckets from 100 µs to 10 s", "scenario fctSeries"},

	// A static cell's bottleneck.
	{"throughput_bps", "gauge", "bit/s", "one queue's delivered rate over the last sample interval", "scenario staticSeries"},
	{"throughput_aggregate_bps", "gauge", "bit/s", "all queues' delivered rate over the last sample interval", "scenario staticSeries"},
	{"throughput_samples_total", "counter", "samples", "throughput samples taken", "scenario staticSeries"},
	{"queue_trace_samples_total", "counter", "samples", "queue-occupancy samples kept (queue_trace_stride > 0)", "scenario staticSeries"},
	{"trace_events_total", "counter", "events", "bottleneck port events by kind (-trace)", "scenario staticSeries"},
	{"throughput", "event", "", "one throughput sample: per-queue and aggregate bit/s", "scenario throughputSampler.sample"},
	{"qlen", "event", "", "one kept queue-occupancy sample: per-queue bytes", "scenario queueTrace.ObservePort"},

	// dynaqd.
	{"dynaqd_build_info", "gauge", "1", "the daemon's build, as the version label", "coord Core.registerMetrics"},
	{"dynaqd_jobs_submitted_total", "counter", "jobs", "jobs accepted by POST /v1/jobs", "coord Core.registerMetrics"},
	{"dynaqd_jobs_deduped_total", "counter", "jobs", "submissions coalesced onto an existing job", "coord Core.registerMetrics"},
	{"dynaqd_jobs_completed_total", "counter", "jobs", "jobs that reached done", "coord Core.registerMetrics"},
	{"dynaqd_jobs_failed_total", "counter", "jobs", "jobs that reached failed", "coord Core.registerMetrics"},
	{"dynaqd_jobs_rejected_total", "counter", "jobs", "submissions refused, by reason", "coord Core.registerMetrics"},
	{"dynaqd_cells_completed_total", "counter", "cells", "cells run to completion, local or remote", "coord Core.registerMetrics"},
	{"dynaqd_cells_remote_total", "counter", "cells", "cells completed by fleet workers", "coord Core.registerMetrics"},
	{"dynaqd_cache_hits_total", "counter", "cells", "cells served from the content-addressed cache", "coord Core.registerMetrics"},
	{"dynaqd_cache_misses_total", "counter", "cells", "cells that needed a fresh run", "coord Core.registerMetrics"},
	{"dynaqd_leases_granted_total", "counter", "leases", "cell leases granted to workers", "coord Core.registerMetrics"},
	{"dynaqd_leases_renewed_total", "counter", "leases", "lease heartbeats accepted", "coord Core.registerMetrics"},
	{"dynaqd_leases_expired_total", "counter", "leases", "leases expired for missed heartbeats", "coord Core.registerMetrics"},
	{"dynaqd_cell_retries_total", "counter", "cells", "failed cell attempts requeued", "coord Core.registerMetrics"},
	{"dynaqd_deadletter_total", "counter", "cells", "cells quarantined after their attempt budget", "coord Core.registerMetrics"},
	{"dynaqd_events_dropped_total", "counter", "lines", "event-stream lines dropped on stalled subscribers", "coord Core.registerMetrics"},
	{"dynaqd_job_queue_wait_ms", "histogram", "ms", "wall time jobs wait before dispatch", "coord Core.registerMetrics"},
	{"dynaqd_lease_duration_ms", "histogram", "ms", "wall time from lease grant to settlement or expiry", "coord Core.registerMetrics"},
	{"dynaqd_cell_execution_ms", "histogram", "ms", "wall time of successful cell runs", "coord Core.registerMetrics"},
	{"dynaqd_job_e2e_ms", "histogram", "ms", "wall time from job accept to a terminal state", "coord Core.registerMetrics"},
	{"dynaqd_queue_depth", "gauge", "jobs", "jobs waiting in the queue", "coord Core.registerMetrics"},
	{"dynaqd_jobs_running", "gauge", "jobs", "jobs executing", "coord Core.registerMetrics"},
	{"dynaqd_workers_active", "gauge", "workers", "workers seen within the liveness window", "coord Core.registerMetrics"},
	{"dynaqd_leases_live", "gauge", "leases", "leases held by workers", "coord Core.registerMetrics"},
	{"dynaqd_deadletter_size", "gauge", "cells", "cells quarantined now", "coord Core.registerMetrics"},
	{"dynaqd_tenant_queue_depth", "gauge", "jobs", "jobs waiting in one tenant's leaf", "coord Core.ensureTenantMetrics"},
	{"dynaqd_tenant_cells_queued", "gauge", "cells", "cells awaiting dispatch in one tenant's leaf", "coord Core.ensureTenantMetrics"},
	{"dynaqd_tenant_inflight", "gauge", "cells", "one tenant's cells dispatched now", "coord Core.ensureTenantMetrics"},
	{"dynaqd_tenant_dispatch_total", "counter", "cells", "cells dispatched, by tenant", "coord Core.ensureTenantMetrics"},
	{"dynaqd_tenant_queue_wait_ms", "histogram", "ms", "wall time jobs wait before dispatch, by tenant", "coord Core.ensureTenantMetrics"},
	{"dynaqd_worker_leases", "gauge", "leases", "leases one worker holds", "coord Core lease grant"},

	// dynaqd's job event stream (GET /v1/jobs/<id>/events), beside the
	// events of the job's cells.
	{"job", "stream", "", "a job's lifecycle: running, queued behind a drain, or its terminal state", "coord Core.publish, FinalLine"},
	{"cell", "stream", "", "a cell's lifecycle: leased, running locally, requeued, quarantined, done", "coord Core.publish, Core.ClaimLocal"},
}

// engineLayer are the packages that expose accessors and name no series.
var engineLayer = []string{
	"sim", "netsim", "transport", "buffer", "core", "sched", "packet", "fabric",
	"topology", "flowsim", "metrics", "faults", "workload", "pias", "units",
}

// catalogueCells are the cells whose registrations the catalogue must cover:
// a static cell with the guardrail, a fault schedule, a queue trace and
// -trace; the same on a shared-memory scheme; and an fct cell on each engine.
func catalogueCells() map[string]scenario.Document {
	static := scenario.Document{
		Kind: "static", Scheme: "DynaQ", Sched: "drr",
		RateGbps: 1, BufferB: 85000, Queues: 4, RTTUs: 500,
		DurationS: 0.2, SampleMs: 50, Seed: 1, Guard: true, TraceStride: 64,
		Specs: []scenario.Spec{{Class: 1, Flows: 2}, {Class: 2, Flows: 8}},
		Faults: []faults.Spec{
			{Kind: faults.KindLoss, Target: "tor:2", AtS: 0, Rate: 0.001},
			{Kind: faults.KindFlap, Target: "host0:nic", AtS: 0.05, UntilS: 0.15, PeriodS: 0.05},
		},
	}
	dt := static
	dt.Scheme, dt.Guard, dt.Faults = "DT", false, nil
	cells := map[string]scenario.Document{"static": static, "static/DT": dt}
	for _, engine := range []string{"packet", "flow", "hybrid"} {
		cells["fct/"+engine] = scenario.Document{
			Kind: "fct", Scheme: "DynaQ", Sched: "spq+drr", Topo: "star", Servers: 4,
			RateGbps: 1, BufferB: 85000, Queues: 5, RTTUs: 500, Load: 0.6, Flows: 40,
			Workloads: []string{"websearch"}, MinRTOMs: 10, Seed: 1, Engine: engine,
		}
	}
	return cells
}

// registered is what one source registered: series name → kind, and the
// event kinds it wrote.
type registered struct {
	series map[string]string
	events map[string]bool
}

// cellRegistrations runs every catalogue cell with telemetry attached.
func cellRegistrations(t *testing.T) registered {
	t.Helper()
	got := registered{series: map[string]string{}, events: map[string]bool{}}
	for name, doc := range catalogueCells() {
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		r, err := scenario.Load(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if doc.Kind == "static" {
			if err := r.SetTraceEvents(16); err != nil {
				t.Fatal(err)
			}
		}
		run, err := telemetry.NewRun(t.TempDir(), telemetry.Manifest{})
		if err != nil {
			t.Fatal(err)
		}
		run.Tee(func(line []byte) {
			var ev struct{ Kind string }
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("%s: event line %q: %v", name, line, err)
			}
			got.events[ev.Kind] = true
		})
		r.SetTelemetry(run)
		if _, err := r.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sv := range run.Registry().Snapshot() {
			got.series[seriesName(sv.ID)] = sv.Kind
		}
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func seriesName(id string) string {
	name, _, _ := strings.Cut(id, "{")
	return name
}

var promType = regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`)

// daemonRegistrations reads the series dynaqd registered over the scripted
// session of internal/server's transcript golden, whose /metrics responses
// it records, tenants, workers and all.
func daemonRegistrations(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("internal/server/testdata/transcript.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range promType.FindAllStringSubmatch(string(raw), -1) {
		out[m[1]] = m[2]
	}
	if len(out) == 0 {
		t.Fatal("the transcript golden holds no /metrics response")
	}
	return out
}

var (
	daemonName = regexp.MustCompile(`dynaqd_[a-z0-9_]*[a-z0-9]`)
	snakeCase  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
)

// readNames returns the series names dynaqtop's string literals, the CI
// workflow and bench read, histogram suffixes folded onto their histogram.
// bench reads cell series from a registry snapshot by name: a snake_case
// literal that indexes a map variable or is compared with == or != is one.
// Every dynaqd name any of them spells is one too.
func readNames(t *testing.T, kinds map[string]entry) map[string]string {
	t.Helper()
	out := map[string]string{}
	read := func(where, name string) {
		for _, suffix := range []string{"_bucket", "_count", "_sum"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base].kind == "histogram" {
				name = base
			}
		}
		out[name] = where
	}
	add := func(where, s string) {
		for _, name := range daemonName.FindAllString(s, -1) {
			read(where, name)
		}
	}
	unquote := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		return s, true
	}
	bench, err := filepath.Glob("bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"cmd/dynaqtop/main.go"}, bench...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		where := filepath.ToSlash(filepath.Dir(path))
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var keys []ast.Expr
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, ok := unquote(n); ok {
					add(where, s)
				}
			case *ast.IndexExpr:
				if _, ok := n.X.(*ast.Ident); ok {
					keys = append(keys, n.Index)
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					keys = append(keys, n.X, n.Y)
				}
			}
			for _, k := range keys {
				if s, ok := unquote(k); ok && where == "bench" && snakeCase.MatchString(s) {
					read(where, s)
				}
			}
			return true
		})
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	add("ci.yml", string(ci))
	return out
}

var streamLine = regexp.MustCompile(`^\{"kind":"([^"]*)"`)

// streamKinds returns the line kinds internal/coord writes to a job's event
// stream, each found as a string literal that opens a {"kind":...} line,
// with the file that writes it.
func streamKinds(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("internal/coord/*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if m := streamLine.FindStringSubmatch(s); m != nil {
					out[m[1]] = filepath.ToSlash(path)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatal("internal/coord writes no {\"kind\":...} line")
	}
	return out
}

// internalImports maps every package under internal/ to the module packages
// its non-test files import.
func internalImports(t *testing.T) map[string][]string {
	t.Helper()
	graph := map[string][]string{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := "dynaq/" + filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "dynaq/") {
				graph[pkg] = append(graph[pkg], p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// reaches reports the import chain from pkg to target, or nil.
func reaches(graph map[string][]string, pkg, target string, seen map[string]bool) []string {
	if pkg == target {
		return []string{pkg}
	}
	if seen[pkg] {
		return nil
	}
	seen[pkg] = true
	for _, dep := range graph[pkg] {
		if chain := reaches(graph, dep, target, seen); chain != nil {
			return append([]string{pkg}, chain...)
		}
	}
	return nil
}

// TestMetricCatalogue holds the catalogue to what cells and dynaqd register,
// what dynaqtop and CI read, and the layering that keeps telemetry names in
// one place.
func TestMetricCatalogue(t *testing.T) {
	byName := map[string]entry{}
	for _, e := range catalogue {
		if _, dup := byName[e.name]; dup {
			t.Errorf("%s catalogued twice", e.name)
		}
		if e.unit == "" && e.kind != "event" && e.kind != "stream" || e.meaning == "" || e.emitter == "" {
			t.Errorf("%s: catalogue entry needs a unit, a meaning and an emitter", e.name)
		}
		byName[e.name] = e
	}

	cells := cellRegistrations(t)
	daemon := daemonRegistrations(t)
	seen := map[string]bool{}
	check := func(source, name, kind string) {
		seen[name] = true
		e, ok := byName[name]
		switch {
		case !ok:
			t.Errorf("%s registers %s %s, which the catalogue does not name", source, kind, name)
		case e.kind != kind:
			t.Errorf("%s registers %s as a %s, the catalogue says %s", source, name, kind, e.kind)
		}
	}
	for name, kind := range cells.series {
		check("a cell", name, kind)
	}
	for kind := range cells.events {
		check("a cell", kind, "event")
	}
	for name, kind := range daemon {
		check("dynaqd", name, kind)
	}
	for kind, where := range streamKinds(t) {
		check(where, kind, "stream")
	}
	for _, e := range catalogue {
		if !seen[e.name] {
			t.Errorf("catalogued %s %s is registered by none of the catalogue cells or dynaqd's transcript session", e.kind, e.name)
		}
	}
	for name, where := range readNames(t, byName) {
		if _, ok := byName[name]; !ok {
			t.Errorf("%s reads %s, which the catalogue does not name", where, name)
		}
	}

	graph := internalImports(t)
	for _, p := range engineLayer {
		pkg := "dynaq/internal/" + p
		if _, err := os.Stat(filepath.Join("internal", p)); err != nil {
			t.Errorf("engine-layer package %s: %v", pkg, err)
		}
		if chain := reaches(graph, pkg, "dynaq/internal/telemetry", map[string]bool{}); chain != nil {
			t.Errorf("engine-layer package %s imports telemetry: %s", pkg, strings.Join(chain, " -> "))
		}
	}
}
