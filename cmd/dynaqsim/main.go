// Command dynaqsim runs a single static-flow scenario on a simulated rack
// and prints the per-queue throughput series plus a summary — the
// interactive counterpart of cmd/experiments.
//
// Examples:
//
//	dynaqsim -scheme DynaQ -spec 1:2,2:16
//	dynaqsim -scheme BestEffort -sched drr -rate 10 -buffer 192000 \
//	    -queues 8 -spec 0:2,1:4,2:8 -duration 5
//	dynaqsim -scheme PQL -weights 4,3,2,1 -spec 0:16,1:8,2:4,3:2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dynaq"
	"dynaq/internal/experiment"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

func main() {
	var (
		scheme   = flag.String("scheme", "DynaQ", "BestEffort | PQL | DynaQ | TCN | PMSB | PerQueueECN | MQ-ECN | TCNDrop")
		schedK   = flag.String("sched", "drr", "drr | wrr | spq+drr")
		rateG    = flag.Float64("rate", 1, "link rate in Gbps")
		bufB     = flag.Int64("buffer", 85000, "port buffer in bytes")
		queues   = flag.Int("queues", 4, "service queues per port")
		weights  = flag.String("weights", "", "comma-separated queue weights (default equal)")
		spec     = flag.String("spec", "1:2,2:16", "traffic: class:flows[,class:flows...]")
		duration = flag.Float64("duration", 10, "simulated seconds")
		rttUS    = flag.Float64("rtt", 500, "base RTT in microseconds")
		mtu      = flag.Int64("mtu", 1500, "frame size in bytes")
		sample   = flag.Float64("sample", 0.5, "throughput sampling interval in seconds")
		seed     = flag.Int64("seed", 1, "random seed")
		seedsN   = flag.Int("seeds", 1, "repeat the scenario across N derived seeds and report mean ± std of the aggregate throughput")
		parallel = flag.Int("parallel", 0, "worker goroutines for -seeds > 1 (0 = GOMAXPROCS, 1 = sequential); the stats are identical at any setting")
		traceN   = flag.Int("trace", 0, "dump the last N drop/mark/evict events at the bottleneck")
		faultsF  = flag.String("faults", "", "JSON file with a fault schedule (array of fault specs; targets tor:<i>, host<i>:nic, group tor)")
		guard    = flag.Bool("guard", false, "arm the invariant guardrail on every switch port")
		config   = flag.String("config", "", "run a JSON scenario file instead of flags (see internal/scenario)")
		engineF  = flag.String("engine", "", "override the scenario's simulation engine: packet | flow | hybrid (-config fct scenarios only)")
		teleDir  = flag.String("telemetry", "", "write run artifacts (manifest, metrics, events) into this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		progress = flag.Bool("progress", false, "print wall-clock progress heartbeats to stderr")
		version  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dynaqsim", dynaq.Version)
		return
	}

	stopProf, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	if *config != "" {
		runConfig(*config, *engineF, *teleDir, *progress)
		return
	}
	if *engineF != "" {
		fatalf("-engine selects an fct scenario's fidelity; it needs -config")
	}

	ws := make([]int64, *queues)
	for i := range ws {
		ws[i] = 1
	}
	if *weights != "" {
		parts := strings.Split(*weights, ",")
		if len(parts) != *queues {
			fatalf("-weights needs %d entries", *queues)
		}
		for i, p := range parts {
			w, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil || w <= 0 {
				fatalf("bad weight %q", p)
			}
			ws[i] = w
		}
	}

	var specs []experiment.QueueSpec
	for _, part := range strings.Split(*spec, ",") {
		cf := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(cf) != 2 {
			fatalf("bad -spec entry %q (want class:flows)", part)
		}
		class, err1 := strconv.Atoi(cf[0])
		flows, err2 := strconv.Atoi(cf[1])
		if err1 != nil || err2 != nil || class < 0 || class >= *queues || flows <= 0 {
			fatalf("bad -spec entry %q", part)
		}
		specs = append(specs, experiment.QueueSpec{Class: class, Flows: flows})
	}

	cfg := experiment.StaticConfig{
		Scheme:      experiment.Scheme(*scheme),
		Sched:       experiment.SchedKind(*schedK),
		Params:      experiment.SchemeParams{Weights: ws},
		Rate:        units.Rate(*rateG * 1e9),
		Delay:       units.Seconds(*rttUS / 4 * 1e-6),
		Buffer:      units.ByteSize(*bufB),
		Queues:      *queues,
		MTU:         units.ByteSize(*mtu),
		Specs:       specs,
		Duration:    units.Seconds(*duration),
		SampleEvery: units.Seconds(*sample),
		Seed:        *seed,
	}
	cfg.TraceEvents = *traceN
	cfg.Guard = *guard
	if *faultsF != "" {
		data, err := os.ReadFile(*faultsF)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.Unmarshal(data, &cfg.Faults); err != nil {
			fatalf("-faults %s: %v", *faultsF, err)
		}
		if err := faults.Validate(cfg.Faults); err != nil {
			fatalf("-faults %s: %v", *faultsF, err)
		}
	}
	if *seedsN > 1 {
		// Multi-seed mode aggregates across runs; single-stream sinks make
		// no sense there.
		if *teleDir != "" {
			fatalf("-seeds > 1 runs many simulations; -telemetry writes a single run's artifacts (drop one of them)")
		}
		if *progress {
			fatalf("-seeds > 1 interleaves runs; drop -progress")
		}
		runMultiSeed(*seedsN, *parallel, cfg)
		return
	}
	var run *telemetry.Run
	if *teleDir != "" {
		// Flag mode has no scenario file to hash, so the manifest hashes a
		// canonical rendering of every behavior-affecting flag instead.
		canonical := fmt.Sprintf(
			"scheme=%s sched=%s rate=%v buffer=%d queues=%d weights=%s spec=%s duration=%v rtt=%v mtu=%d sample=%v seed=%d trace=%d faults=%s guard=%v",
			*scheme, *schedK, *rateG, *bufB, *queues, *weights, *spec,
			*duration, *rttUS, *mtu, *sample, *seed, *traceN, *faultsF, *guard)
		run = openRun(*teleDir, []byte(canonical), *seed, *scheme, "")
		cfg.Telemetry = run
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	res, err := experiment.RunStatic(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("scheme=%s sched=%s rate=%v buffer=%v queues=%d rtt=%vus\n\n",
		*scheme, *schedK, cfg.Rate, cfg.Buffer, *queues, *rttUS)
	fmt.Printf("%-10s", "time")
	for q := 0; q < *queues; q++ {
		fmt.Printf("  q%d(Mbps)", q)
	}
	fmt.Printf("  aggregate\n")
	for _, s := range res.Samples {
		fmt.Printf("%-10s", s.At.String())
		for _, r := range s.PerQueue {
			fmt.Printf("  %8.1f", float64(r)/1e6)
		}
		fmt.Printf("  %8.1f\n", float64(s.Aggregate)/1e6)
	}
	end := units.Time(cfg.Duration)
	warm := end / 5
	fmt.Printf("\nsummary (after warmup):\n")
	for q := 0; q < *queues; q++ {
		fmt.Printf("  queue %d: %8.1f Mbps  share %.3f\n", q,
			float64(res.AvgThroughput(q, warm, end))/1e6, res.ShareOf(q, warm, end))
	}
	fmt.Printf("  aggregate: %.1f Mbps, drops at bottleneck: %d\n",
		float64(res.AvgAggregate(warm, end))/1e6, res.Drops)
	if res.Trace != nil {
		fmt.Printf("\nbottleneck events: %s\n", res.Trace.Summary())
		if err := res.Trace.Dump(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
	if len(res.FaultTimeline) > 0 {
		fmt.Printf("\nfault timeline (%d transitions, %d lost, %d corrupted on links):\n",
			len(res.FaultTimeline), res.LinkLost, res.LinkCorrupted)
		for _, tr := range res.FaultTimeline {
			fmt.Printf("  %s\n", tr)
		}
	}
	if *guard {
		printViolations(res.ViolationTotal, res.Violations)
	}
	if run != nil {
		summarize(run, res.Summary())
		run.Summarize("aggregate_mbps", fmt.Sprintf("%.1f", float64(res.AvgAggregate(warm, end))/1e6))
		if res.Trace != nil {
			if err := writeTrace(run.Dir(), res.Trace); err != nil {
				fatalf("%v", err)
			}
		}
		if err := run.Close(); err != nil {
			fatalf("%v", err)
		}
	}
}

// runMultiSeed repeats the flag-built scenario across n derived seeds on a
// worker pool and prints the aggregate-throughput statistics. Each seed runs
// a fully independent simulation, so the reported stats are identical at any
// -parallel setting.
func runMultiSeed(n, parallel int, cfg experiment.StaticConfig) {
	end := units.Time(cfg.Duration)
	warm := end / 5
	st, err := experiment.RunSeeds(n, experiment.Options{Seed: cfg.Seed, Parallel: parallel},
		func(o experiment.Options) (float64, error) {
			c := cfg
			c.Seed = o.Seed
			res, err := experiment.RunStatic(c)
			if err != nil {
				return 0, err
			}
			return float64(res.AvgAggregate(warm, end)) / 1e6, nil
		})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("scheme=%s aggregate Mbps after warmup, %d seeds on %d workers:\n  %s\n",
		cfg.Scheme, n, experiment.Workers(parallel, n), st)
}

// writeTrace dumps the recorder's retained events as port_events.jsonl inside
// the run's artifact directory.
func writeTrace(dir string, rec *metrics.EventRecorder) error {
	f, err := os.Create(filepath.Join(dir, telemetry.PortEventsFile))
	if err != nil {
		return err
	}
	if err := rec.DumpJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printViolations reports the guardrail outcome: silence is not a pass, so
// the clean case is stated explicitly.
func printViolations(total int64, recorded []faults.Violation) {
	if total == 0 {
		fmt.Printf("\nguardrail: no invariant violations\n")
		return
	}
	fmt.Printf("\nguardrail: %d violations (showing %d):\n", total, len(recorded))
	for _, v := range recorded {
		fmt.Printf("  %s\n", v)
	}
}

// runConfig executes a JSON scenario document, optionally writing run
// artifacts (manifest hashed over the scenario file bytes) and progress.
// engine, when non-empty, overrides the document's simulation engine; since
// the scenario bytes (and so the hash) don't change, the override is carried
// by the manifest's engine field instead.
func runConfig(path, engine, teleDir string, progress bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	r, err := scenario.LoadWith(data, scenario.Overrides{Engine: engine})
	if err != nil {
		fatalf("%v", err)
	}
	var run *telemetry.Run
	if teleDir != "" {
		run = openRun(teleDir, data, r.Seed(), r.Scheme(), r.Engine())
		r.SetTelemetry(run)
	}
	if progress {
		r.SetProgress(os.Stderr)
	}
	res, err := r.Run()
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case res.Static != nil:
		st := res.Static
		n := len(st.Samples)
		fmt.Printf("%s scenario (%s): %d throughput samples, %d drops\n",
			r.Kind(), st.Scheme, n, st.Drops)
		if n > 0 {
			last := st.Samples[n-1]
			fmt.Printf("final sample @ %v:", last.At)
			for q, rate := range last.PerQueue {
				fmt.Printf("  q%d=%.1fMbps", q, float64(rate)/1e6)
			}
			fmt.Printf("  aggregate=%.1fMbps\n", float64(last.Aggregate)/1e6)
		}
		reportFaults(r.Guarded(), st.FaultOutcome)
	case res.Dynamic != nil:
		d := res.Dynamic
		fmt.Printf("%s scenario (%s, load %.0f%%, engine %s): %d/%d flows\n",
			r.Kind(), d.Scheme, d.Load*100, r.Engine(), d.Completed, d.Generated)
		if fl := d.Fluid; fl != nil {
			fmt.Printf("engine events %d  rate recomputes %d  demotions %d  promotions %d\n",
				d.Events, fl.Recomputes, fl.Demotions, fl.Promotions)
		}
		fmt.Printf("avg FCT overall %.2fms  small %.2fms  large %.2fms  p99 small %.2fms\n",
			d.FCT.Avg(metrics.AllFlows).Seconds()*1e3,
			d.FCT.Avg(metrics.SmallFlows).Seconds()*1e3,
			d.FCT.Avg(metrics.LargeFlows).Seconds()*1e3,
			d.FCT.Percentile(metrics.SmallFlows, 0.99).Seconds()*1e3)
		reportFaults(r.Guarded(), d.FaultOutcome)
	}
	if run != nil {
		summarize(run, res.Summary())
		if err := run.Close(); err != nil {
			fatalf("%v", err)
		}
	}
}

// openRun starts this invocation's artifact run in dir; hashed is what
// identifies the scenario (the document, or flag mode's canonical rendering).
func openRun(dir string, hashed []byte, seed int64, scheme, engine string) *telemetry.Run {
	run, err := telemetry.NewRun(dir, telemetry.Manifest{
		Tool:         "dynaqsim",
		Version:      dynaq.Version,
		ScenarioHash: telemetry.Hash(hashed),
		Seed:         seed,
		Scheme:       scheme,
		Engine:       engine,
		Args:         os.Args[1:],
	})
	if err != nil {
		fatalf("%v", err)
	}
	return run
}

// summarize records a result's headline in the run's manifest.
func summarize(run *telemetry.Run, entries []telemetry.SummaryEntry) {
	for _, e := range entries {
		run.Summarize(e.Key, e.Value)
	}
}

// reportFaults summarises a scenario run's fault activity and guardrail
// verdict (quiet when the scenario scheduled neither).
func reportFaults(guarded bool, out experiment.FaultOutcome) {
	if n := len(out.FaultTimeline); n > 0 {
		fmt.Printf("faults: %d transitions, %d lost, %d corrupted on links\n", n, out.LinkLost, out.LinkCorrupted)
	}
	if guarded {
		printViolations(out.ViolationTotal, out.Violations)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
