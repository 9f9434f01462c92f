package main

import "fmt"

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; the
// smoke test fails if the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median by which it may worsen
}

// End-to-end metrics, host time. Every workload reports every one of them
// per unit of offered work, so that a run at another seed (another flow-size
// draw, another job list) measures the same quantity. The work unit is fixed
// by the workload's inputs alone, never by how the program executes them:
//
//	simulation workloads  1000 offered MSS-sized data packets (Σ ceil(size/MSS)/1000)
//	svc_dispatch          one cell dispatched through submit → lease → complete
//	svc_cached            one resubmitted job of cached cells (POST → done)
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"unit_wall_us", "us", "lower", 0.15},
	{"unit_alloc_kb", "KB", "lower", 0.10},
	{"unit_allocs", "count", "lower", 0.10},
}

// Per-layer metrics. Counts come from the traced cells and repeat exactly at
// a given seed; *_ns/_us/_ms timings come from spans or from the layer
// drivers in drivers.go; ratios are arithmetic on the two. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.heap_max_depth", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.ceiling_fraction", "ratio", "higher", 0},

	{"core.adjustments", "count", "lower", 0},
	{"core.algorithm_drops", "count", "lower", 0},
	{"core.process_pass_ns", "ns", "lower", 0},
	{"core.process_adjust_ns", "ns", "lower", 0},

	{"buffer.admit_ns.DynaQ", "ns", "lower", 0},
	{"buffer.admit_ns.BestEffort", "ns", "lower", 0},
	{"buffer.admit_ns.PQL", "ns", "lower", 0},
	{"buffer.admit_ns.PMSB", "ns", "lower", 0},
	{"buffer.admit_ns.TCN", "ns", "lower", 0},

	{"sched.select_ns.drr", "ns", "lower", 0},
	{"sched.select_ns.spqdrr", "ns", "lower", 0},

	{"netsim.pkts_enqueued", "count", "lower", 0},
	{"netsim.pkts_dropped", "count", "lower", 0},
	{"netsim.pkts_marked", "count", "lower", 0},
	{"netsim.port_ns_per_pkt", "ns", "lower", 0},
	{"netsim.drop_share", "ratio", "lower", 0},

	{"transport.pkts_sent", "count", "lower", 0},
	{"transport.acks", "count", "lower", 0},
	{"transport.retransmits", "count", "lower", 0},
	{"transport.timeouts", "count", "lower", 0},
	{"transport.loopback_ns_per_pkt", "ns", "lower", 0},
	{"transport.retransmit_share", "ratio", "lower", 0},

	{"flowsim.recomputes", "count", "lower", 0},
	{"flowsim.demotions", "count", "lower", 0},
	{"flowsim.packetized_pkts", "count", "lower", 0},
	{"flowsim.max_active", "count", "lower", 0},
	{"flowsim.topology_build_ms", "ms", "lower", 0},
	{"flowsim.path_ns", "ns", "lower", 0},
	{"flowsim.us_per_recompute", "us", "lower", 0},
	{"flowsim.ns_per_packetized_pkt", "ns", "lower", 0},

	{"experiment.flows_generated", "count", "higher", 0},
	{"experiment.flows_completed", "count", "higher", 0},
	{"experiment.fct_avg_us", "us", "lower", 0},
	{"experiment.fct_p99_us", "us", "lower", 0},
	{"experiment.ns_per_event", "ns", "lower", 0},
	{"experiment.ns_per_pkt", "ns", "lower", 0},
	{"experiment.heap_peak_mb", "MB", "lower", 0},
	{"experiment.gc_cycles", "count", "lower", 0},
	{"experiment.gc_pause_ms", "ms", "lower", 0},

	{"scenario.load_us", "us", "lower", 0},
	{"workload.flowgen_ns_per_flow", "ns", "lower", 0},

	{"telemetry.overhead_ratio", "ratio", "lower", 0},
	{"telemetry.artifact_write_ms", "ms", "lower", 0},
	{"telemetry.artifact_bytes", "B", "lower", 0},

	{"fairq.push_pop_ns.4t", "ns", "lower", 0},
	{"fairq.push_pop_ns.64t", "ns", "lower", 0},
	{"fleet.lease_table_ns", "ns", "lower", 0},

	{"server.submit_ms_p50", "ms", "lower", 0},
	{"server.submit_ms_p99", "ms", "lower", 0},
	{"server.lease_ms_p50", "ms", "lower", 0},
	{"server.lease_ms_p99", "ms", "lower", 0},
	{"server.complete_ms_p50", "ms", "lower", 0},
	{"server.complete_ms_p99", "ms", "lower", 0},
	{"server.status_ms_p50", "ms", "lower", 0},
	{"server.cached_job_ms_p99", "ms", "lower", 0},
	{"server.metrics_scrape_ms", "ms", "lower", 0},
	{"server.leases_granted", "count", "lower", 0},
	{"server.leases_empty", "count", "lower", 0},
	{"server.cells_completed", "count", "higher", 0},
	{"server.cache_hits", "count", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.upload_bytes_per_cell", "B", "lower", 0},
	{"server.cachekey_ns", "ns", "lower", 0},

	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}

// report is one workload's outcome: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
type report struct {
	Workload  string `json:"workload"`
	WorkUnit  string `json:"work_unit"`
	Attempted int64  `json:"ops_attempted"`
	Failed    int64  `json:"ops_failed"`
	// Metrics holds the gated (untraced) or per-layer (traced) metrics.
	Metrics map[string]sample `json:"metrics"`
	// Info holds raw, ungated numbers a reader wants next to the metrics:
	// wall seconds per cell, cells per second, the job latency median.
	Info map[string]sample `json:"info,omitempty"`
	// Counts are exact: two runs of one commit at one seed must agree.
	Counts map[string]int64 `json:"counts,omitempty"`
	Errors []string         `json:"errors,omitempty"`
}

func newReport(name, unit string) *report {
	return &report{
		Workload: name,
		WorkUnit: unit,
		Metrics:  make(map[string]sample),
		Info:     make(map[string]sample),
		Counts:   make(map[string]int64),
	}
}

// failf records a correctness failure; the run exits non-zero.
func (r *report) failf(format string, args ...any) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.Errors) == 0 && r.Failed == 0 }

// fill gives every listed metric a value, so that a workload which does not
// exercise a layer still prints that layer's metrics (as 0).
func (r *report) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = sample{Unit: d.Unit}
		}
	}
}
