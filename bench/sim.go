package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynaq/internal/experiment"
	"dynaq/internal/fleet"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

//go:embed workloads/*.json
var workloadFS embed.FS

// workloadDoc returns the scenario document of a workload.
func workloadDoc(name string) []byte {
	data, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		panic(err) // the set of embedded documents is fixed at build time
	}
	return data
}

// simSpec sizes one simulation workload. A run executes cells, each the
// workload's scenario document at its own seed derived from -seed, so that a
// run averages over many flow-size draws instead of reporting one.
type simSpec struct {
	name string
	// cellsPer10s is how many timed cells a run of -seconds 10 executes.
	// It is a constant, not a time budget, so that two runs at one seed do
	// exactly the same work and their counts can be compared exactly.
	cellsPer10s int
	// traceCells is how many cells the traced run pushes through telemetry.
	traceCells int
}

var simSpecs = []simSpec{
	{name: "star_packet", cellsPer10s: 26, traceCells: 4},
	{name: "leafspine_packet", cellsPer10s: 20, traceCells: 3},
	{name: "fattree_flow", cellsPer10s: 18, traceCells: 3},
	{name: "leafspine_hybrid", cellsPer10s: 30, traceCells: 4},
}

const simWorkUnit = "1000 offered MSS-sized data packets"

// cellSeed derives the scenario seed of a run's i-th cell. The stride keeps
// the per-CDF generator seeds (seed, seed+1, ...) of neighbouring cells apart.
func cellSeed(cfg config, i int) int64 { return cfg.seed*4096 + int64(i)*16 }

// simDocs returns the workload's document (scaled down under -smoke), its
// quarter-size warm-up variant, and the decoded form.
func simDocs(cfg config, name string) (full, warm []byte, doc scenario.Document, err error) {
	if err = json.Unmarshal(workloadDoc(name), &doc); err != nil {
		return nil, nil, doc, fmt.Errorf("%s.json: %w", name, err)
	}
	if cfg.smoke {
		doc.Flows = max(8, doc.Flows/16)
	}
	if full, err = json.Marshal(doc); err != nil {
		return nil, nil, doc, err
	}
	w := doc
	w.Flows = (doc.Flows + 3) / 4
	warm, err = json.Marshal(w)
	return full, warm, doc, err
}

// cellCounts are the simulated statistics of one cell. They are a function
// of (document, seed) alone, so any two executions must agree on all of them.
type cellCounts struct {
	Events, Generated, Completed   int64
	OfferedBytes, OfferedPkts      int64
	FCTSumPs                       int64
	Recomputes, Demotions, PktzPkt int64
	MaxActive                      int64
}

func (a *cellCounts) add(b cellCounts) {
	a.Events += b.Events
	a.Generated += b.Generated
	a.Completed += b.Completed
	a.OfferedBytes += b.OfferedBytes
	a.OfferedPkts += b.OfferedPkts
	a.FCTSumPs += b.FCTSumPs
	a.Recomputes += b.Recomputes
	a.Demotions += b.Demotions
	a.PktzPkt += b.PktzPkt
	a.MaxActive = max(a.MaxActive, b.MaxActive)
}

func countsOf(res *experiment.DynamicResult, mss units.ByteSize) cellCounts {
	c := cellCounts{
		Events:    res.Events,
		Generated: int64(res.Generated),
		Completed: int64(res.Completed),
	}
	for _, rec := range res.FCT.Records() {
		c.OfferedBytes += int64(rec.Size)
		c.OfferedPkts += int64((rec.Size + mss - units.Byte) / mss)
		c.FCTSumPs += int64(rec.FCT)
	}
	if f := res.Fluid; f != nil {
		c.Recomputes, c.Demotions, c.PktzPkt = f.Recomputes, f.Demotions, f.PacketizedPackets
		c.MaxActive = int64(f.MaxActive)
	}
	return c
}

// simCell is one executed cell.
type simCell struct {
	load    time.Duration // scenario.LoadWith
	wall    time.Duration // Runner.Run
	alloc   uint64
	mallocs uint64
	gc      uint32
	pauseNs uint64
	heapSys uint64
	res     *experiment.DynamicResult
}

// runCell loads doc at seed and runs it, timing Runner.Run alone. span, when
// non-nil, gets a child around each of the two calls.
func runCell(doc []byte, seed int64, span *trace.SpanRef) (simCell, error) {
	var c simCell
	ld := span.Child("scenario.LoadWith")
	t0 := now()
	r, err := scenario.LoadWith(doc, scenario.Overrides{Seed: &seed})
	c.load = since(t0)
	ld.End()
	if err != nil {
		return c, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run := span.Child("Runner.Run")
	t0 = now()
	res, err := r.Run()
	c.wall = since(t0)
	run.End()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return c, err
	}
	if res.Dynamic == nil {
		return c, fmt.Errorf("workload document is not an fct scenario")
	}
	c.res = res.Dynamic
	c.alloc, c.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	c.gc, c.pauseNs, c.heapSys = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs, m1.HeapSys
	return c, nil
}

func mssOf(doc scenario.Document) units.ByteSize {
	mtu := units.ByteSize(doc.MTU)
	if mtu == 0 {
		mtu = 1500
	}
	return mtu - transport.HeaderSize
}

// tally books one cell's flows as operations: a flow that was not generated
// or not completed by the simulated horizon failed.
func (r *report) tally(cell int, doc scenario.Document, c cellCounts) {
	r.Attempted += int64(doc.Flows)
	if missing := int64(doc.Flows) - c.Completed; missing != 0 {
		r.Failed += missing
		r.failf("cell %d: %d of %d flows completed (%d generated)", cell, c.Completed, doc.Flows, c.Generated)
	}
}

func (r *report) putCounts(c cellCounts) {
	r.Counts["sim.events"] = c.Events
	r.Counts["experiment.flows_generated"] = c.Generated
	r.Counts["experiment.flows_completed"] = c.Completed
	r.Counts["experiment.offered_bytes"] = c.OfferedBytes
	r.Counts["experiment.offered_pkts"] = c.OfferedPkts
	r.Counts["experiment.fct_sum_ps"] = c.FCTSumPs
	r.Counts["flowsim.recomputes"] = c.Recomputes
	r.Counts["flowsim.demotions"] = c.Demotions
	r.Counts["flowsim.packetized_pkts"] = c.PktzPkt
	r.Counts["flowsim.max_active"] = c.MaxActive
}

// simSetup is what precedes the first timed cell: reading the workload
// document and one quarter-size warm-up cell. The warm-up runs at the
// document's own seed, not one derived from -seed: it exists to fill caches
// and grow the heap, and a fixed instance keeps setup_s comparable across
// seeds.
func simSetup(cfg config, name string) (full []byte, doc scenario.Document, err error) {
	full, warm, doc, err := simDocs(cfg, name)
	if err != nil {
		return nil, doc, err
	}
	_, err = runCell(warm, doc.Seed, nil)
	return full, doc, err
}

// runSim is the untraced run of a simulation workload.
func runSim(cfg config, spec simSpec) *report {
	r := newReport(spec.name, simWorkUnit)
	var (
		full   []byte
		doc    scenario.Document
		setups []float64
	)
	for i := 0; i < cfg.setups(); i++ {
		t0 := now()
		var err error
		if full, doc, err = simSetup(cfg, spec.name); err != nil {
			r.failf("set-up: %v", err)
			return r
		}
		setups = append(setups, since(t0).Seconds())
	}
	r.Metrics["setup_s"] = summarize("s", setups)

	mss := mssOf(doc)
	var wall, alloc, mallocs, raw []float64
	var total, first cellCounts
	n := cfg.reps(spec.cellsPer10s)
	for i := 0; i < n; i++ {
		c, err := runCell(full, cellSeed(cfg, i), nil)
		if err != nil {
			r.Attempted += int64(doc.Flows)
			r.Failed += int64(doc.Flows)
			r.failf("cell %d: %v", i, err)
			continue
		}
		cc := countsOf(c.res, mss)
		r.tally(i, doc, cc)
		total.add(cc)
		if i == 0 {
			first = cc
		}
		if cc.OfferedPkts == 0 {
			continue
		}
		kpkt := float64(cc.OfferedPkts) / 1e3
		wall = append(wall, c.wall.Seconds()*1e6/kpkt)
		alloc = append(alloc, float64(c.alloc)/1e3/kpkt)
		mallocs = append(mallocs, float64(c.mallocs)/kpkt)
		raw = append(raw, c.wall.Seconds())
	}
	// Determinism: the first cell, run again, must reproduce every count.
	if again, err := runCell(full, cellSeed(cfg, 0), nil); err != nil {
		r.failf("replaying cell 0: %v", err)
	} else if got := countsOf(again.res, mss); got != first {
		r.failf("cell 0 is not deterministic: first %+v, replay %+v", first, got)
	}

	r.Metrics["unit_wall_us"] = summarize("us", wall)
	r.Metrics["unit_alloc_kb"] = summarize("KB", alloc)
	r.Metrics["unit_allocs"] = summarize("count", mallocs)
	r.Info["cell_wall_s"] = summarize("s", raw)
	r.putCounts(total)
	r.Counts["cells"] = int64(n)
	return r
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// spanDurations returns the duration in milliseconds of every span of one name.
func spanDurations(spans []trace.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Domain == trace.DomainWall {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// traceSim is the traced run of a simulation workload. The same cells run
// twice: first exactly as the untraced run executes them, with spans around
// the benchmark's own calls, then through fleet.RunCellTo with a
// telemetry.Run writing artifacts, which is where the per-layer counts come
// from and what telemetry costs a dynaqd tenant per cell. The layer drivers
// follow.
func traceSim(cfg config, spec simSpec) *report {
	r := newReport(spec.name, simWorkUnit)
	full, doc, err := simSetup(cfg, spec.name)
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	mss := mssOf(doc)
	tr := trace.New(fmt.Sprintf("bench-%s-seed%d", spec.name, cfg.seed), "bench", wallClock{})
	cells := spec.traceCells
	if cfg.smoke {
		cells = 1
	}

	var plain cellCounts
	var plainWall, loadUS, gcPause float64
	var gcCycles, heapSys uint64
	var fcts []float64
	var plainFCTUS int64 // Σ FCT in whole microseconds, as the fct_us histogram sums it
	for i := 0; i < cells; i++ {
		seed := cellSeed(cfg, i)
		root := tr.Start("cell", "", trace.AInt("cell", int64(i)), trace.AInt("seed", seed))
		c, err := runCell(full, seed, root)
		root.End()
		if err != nil {
			r.failf("cell %d: %v", i, err)
			return r
		}
		cc := countsOf(c.res, mss)
		r.tally(i, doc, cc)
		plain.add(cc)
		plainWall += c.wall.Seconds()
		loadUS += c.load.Seconds() * 1e6 / float64(cells)
		gcCycles += uint64(c.gc)
		gcPause += float64(c.pauseNs) / 1e6
		heapSys = max(heapSys, c.heapSys)
		for _, rec := range c.res.FCT.Records() {
			fcts = append(fcts, float64(rec.FCT)/float64(units.Microsecond))
			plainFCTUS += int64(rec.FCT / units.Microsecond)
		}
	}

	// The manifest names the scenario by the hash of the workload document.
	scenarioHash := telemetry.Hash(workloadDoc(spec.name))
	var teleWall float64
	var artifactBytes int64
	counts := make(map[string]int64)
	var heapDepth int64
	for i := 0; i < cells; i++ {
		seed := cellSeed(cfg, i)
		dir := filepath.Join(cfg.scratch, "telemetry-"+spec.name, fmt.Sprintf("cell%d", i))
		root := tr.Start("cell-telemetry", "", trace.AInt("cell", int64(i)), trace.AInt("seed", seed))
		t0 := now()
		man := fleet.CellManifest("bench", scenarioHash, doc.Scheme, seed, "bench")
		reg, err := fleet.RunCellTo(dir, full, doc.Scheme, seed, man, nil, root)
		teleWall += since(t0).Seconds()
		root.End()
		if err != nil {
			r.failf("telemetry cell %d: %v", i, err)
			return r
		}
		// Counters add up across ports, queues and cells; the heap depth is
		// a high-water mark.
		for _, sv := range reg.Snapshot() {
			name, _, _ := strings.Cut(sv.ID, "{")
			switch {
			case name == "sim_heap_max_depth":
				heapDepth = max(heapDepth, sv.Value)
			case name == "fct_us":
				counts["fct_us_sum"] += sv.Sum
			case sv.Kind == "counter":
				counts[name] += sv.Value
			}
		}
		n, err := dirBytes(dir)
		if err != nil {
			r.failf("sizing %s: %v", dir, err)
		}
		artifactBytes += n
	}
	// Telemetry must observe, not perturb: the instrumented cells complete
	// the same flows in the same simulated time as the plain ones. (Their
	// event count is higher by the heartbeat ticks telemetry schedules.)
	if counts["flows_completed_total"] != plain.Completed || counts["fct_us_sum"] != plainFCTUS {
		r.failf("telemetry changed the simulation: %d flows, Σfct %d us with it; %d flows, Σfct %d us without",
			counts["flows_completed_total"], counts["fct_us_sum"], plain.Completed, plainFCTUS)
	}

	spans := finishTrace(cfg, spec.name, tr, r)
	put := func(name string, v float64) { r.Metrics[name] = one(unitOf(name), v) }
	ratio := func(a, b float64) float64 {
		//dynaqlint:allow float-eq an exact zero denominator is a count that stayed 0, not an arithmetic result
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("sim.events", float64(plain.Events))
	put("sim.heap_max_depth", float64(heapDepth))
	put("core.adjustments", float64(counts["dynaq_adjustments_total"]))
	put("core.algorithm_drops", float64(counts["dynaq_algorithm_drops_total"]))
	put("netsim.pkts_enqueued", float64(counts["port_enqueued_total"]))
	put("netsim.pkts_dropped", float64(counts["port_drops_total"]))
	put("netsim.pkts_marked", float64(counts["port_marked_total"]))
	put("netsim.drop_share", ratio(float64(counts["port_drops_total"]),
		float64(counts["port_drops_total"]+counts["port_enqueued_total"])))
	put("transport.pkts_sent", float64(counts["transport_sent_packets_total"]))
	put("transport.acks", float64(counts["transport_acks_total"]))
	put("transport.retransmits", float64(counts["transport_retransmits_total"]))
	put("transport.timeouts", float64(counts["transport_timeouts_total"]))
	put("transport.retransmit_share", ratio(float64(counts["transport_retransmits_total"]),
		float64(counts["transport_sent_packets_total"])))
	put("flowsim.recomputes", float64(plain.Recomputes))
	put("flowsim.demotions", float64(plain.Demotions))
	put("flowsim.packetized_pkts", float64(plain.PktzPkt))
	put("flowsim.max_active", float64(plain.MaxActive))
	if plain.PktzPkt > 0 {
		put("flowsim.ns_per_packetized_pkt", ratio(plainWall*1e9, float64(plain.PktzPkt)))
	} else {
		put("flowsim.us_per_recompute", ratio(plainWall*1e6, float64(plain.Recomputes)))
	}
	put("experiment.flows_generated", float64(plain.Generated))
	put("experiment.flows_completed", float64(plain.Completed))
	sort.Float64s(fcts)
	put("experiment.fct_avg_us", ratio(float64(plain.FCTSumPs)/float64(units.Microsecond), float64(plain.Completed)))
	put("experiment.fct_p99_us", quantile(fcts, 0.99))
	nsPerEvent := ratio(plainWall*1e9, float64(plain.Events))
	put("experiment.ns_per_event", nsPerEvent)
	put("experiment.ns_per_pkt", ratio(plainWall*1e9, float64(counts["transport_sent_packets_total"])))
	put("experiment.heap_peak_mb", float64(heapSys)/1e6)
	put("experiment.gc_cycles", float64(gcCycles))
	put("experiment.gc_pause_ms", gcPause)
	put("scenario.load_us", loadUS)
	put("telemetry.overhead_ratio", ratio(teleWall, plainWall))
	put("telemetry.artifact_write_ms", median(spanDurations(spans, "artifact-write")))
	put("telemetry.artifact_bytes", float64(artifactBytes)/float64(cells))
	put("bench.trace_overhead_ratio", ratio(teleWall, plainWall))

	engineNs := driveSimEngine(cfg, int(max(heapDepth, 1)))
	put("sim.ns_per_event", engineNs)
	put("sim.events_per_s", ratio(1e9, engineNs))
	put("sim.ceiling_fraction", ratio(engineNs, nsPerEvent))
	driveLayers(cfg, r)

	for name, v := range counts {
		r.Counts["telemetry."+name] = v
	}
	r.putCounts(plain)
	r.Counts["cells"] = int64(cells)
	return r
}
