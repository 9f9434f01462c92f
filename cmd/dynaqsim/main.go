// Command dynaqsim runs one scenario document and prints its result: a
// static scenario's per-queue throughput series plus a summary, or an fct
// scenario's flow completion times — the interactive counterpart of
// cmd/experiments.
//
// The document comes from a file (-config) or from flags, which are
// shorthand for a static document: they are encoded as one and loaded
// exactly as -config loads a file. With -telemetry the document's bytes are
// written as scenario.json next to the manifest that hashes them, so
// `dynaqsim -config DIR/scenario.json` reruns a flag run.
//
// Examples:
//
//	dynaqsim -scheme DynaQ -spec 1:2,2:16
//	dynaqsim -scheme BestEffort -sched drr -rate 10 -buffer 192000 \
//	    -queues 8 -spec 0:2,1:4,2:8 -duration 5
//	dynaqsim -scheme PQL -weights 4,3,2,1 -spec 0:16,1:8,2:4,3:2
//	dynaqsim -config scenarios/fig3_dynaq.json -seeds 8
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dynaq"
	"dynaq/internal/buffer"
	"dynaq/internal/experiment"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/scenario"
	"dynaq/internal/sched"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// scenarioFlags are the flags that describe a static scenario; document
// encodes them as a scenario document.
type scenarioFlags struct {
	scheme, sched, weights, spec, faults string
	rate, duration, rtt, sample          float64
	buffer, mtu, seed                    int64
	queues                               int
	guard                                bool
}

func (s *scenarioFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&s.scheme, "scheme", "DynaQ", strings.Join(buffer.SchemeNames(), " | "))
	fs.StringVar(&s.sched, "sched", "drr", "port scheduler, a row of internal/sched's table: "+strings.Join(sched.KindNames(), " | "))
	fs.Float64Var(&s.rate, "rate", 1, "link rate in Gbps")
	fs.Int64Var(&s.buffer, "buffer", 85000, "port buffer in bytes")
	fs.IntVar(&s.queues, "queues", 4, "service queues per port")
	fs.StringVar(&s.weights, "weights", "", "comma-separated queue weights (default equal)")
	fs.StringVar(&s.spec, "spec", "1:2,2:16", "traffic: class:flows[,class:flows...]")
	fs.Float64Var(&s.duration, "duration", 10, "simulated seconds")
	fs.Float64Var(&s.rtt, "rtt", 500, "base RTT in microseconds")
	fs.Int64Var(&s.mtu, "mtu", 1500, "frame size in bytes")
	fs.Float64Var(&s.sample, "sample", 0.5, "throughput sampling interval in seconds")
	fs.Int64Var(&s.seed, "seed", 1, "random seed")
	fs.StringVar(&s.faults, "faults", "", "JSON file with a fault schedule (array of fault specs; targets tor:<i>, host<i>:nic, group tor)")
	fs.BoolVar(&s.guard, "guard", false, "arm the invariant guardrail on every switch port")
}

// flagDocument is the static document the flags describe. The -faults
// file's bytes become its "faults" key as they are, so the loader alone
// decodes and validates them.
type flagDocument struct {
	scenario.Document
	Faults json.RawMessage `json:"faults,omitempty"`
}

// document encodes the flags as a static scenario document. Only the -spec
// and -weights strings are parsed here; every range check is the loader's.
func (s *scenarioFlags) document() ([]byte, error) {
	doc := flagDocument{Document: scenario.Document{
		Kind:      "static",
		Scheme:    s.scheme,
		Sched:     s.sched,
		RateGbps:  s.rate,
		BufferB:   s.buffer,
		Queues:    s.queues,
		RTTUs:     s.rtt,
		MTU:       s.mtu,
		Seed:      s.seed,
		DurationS: s.duration,
		SampleMs:  s.sample * 1e3,
		Guard:     s.guard,
	}}
	if s.weights != "" {
		for _, p := range strings.Split(s.weights, ",") {
			w, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad weight %q", p)
			}
			doc.Weights = append(doc.Weights, w)
		}
	}
	for _, part := range strings.Split(s.spec, ",") {
		cf := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(cf) != 2 {
			return nil, fmt.Errorf("bad -spec entry %q (want class:flows)", part)
		}
		class, err1 := strconv.Atoi(cf[0])
		flows, err2 := strconv.Atoi(cf[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad -spec entry %q", part)
		}
		doc.Specs = append(doc.Specs, scenario.Spec{Class: class, Flows: flows})
	}
	if s.faults != "" {
		var err error
		if doc.Faults, err = os.ReadFile(s.faults); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("-faults %s: %v", s.faults, err)
	}
	return append(data, '\n'), nil
}

// run is the command: args are the flags, stdout receives the report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dynaqsim", flag.ExitOnError)
	var sf scenarioFlags
	sf.register(fs)
	var (
		seedsN   = fs.Int("seeds", 1, "repeat a static scenario across N derived seeds and report mean ± std of the aggregate throughput")
		parallel = fs.Int("parallel", 0, "worker goroutines for -seeds > 1 (0 = GOMAXPROCS, 1 = sequential); the stats are identical at any setting")
		traceN   = fs.Int("trace", 0, "dump the last N drop/mark/evict events at a static scenario's bottleneck")
		config   = fs.String("config", "", "run a JSON scenario file instead of flags (see internal/scenario)")
		engineF  = fs.String("engine", "", "override the scenario's simulation engine: packet | flow | hybrid (static scenarios run on packet)")
		teleDir  = fs.String("telemetry", "", "write run artifacts (manifest, metrics, events, scenario.json, outcome.json) into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		progress = fs.Bool("progress", false, "print wall-clock progress heartbeats to stderr")
		version  = fs.Bool("version", false, "print the build version and exit")
	)
	fs.Parse(args)
	if *version {
		fmt.Fprintln(stdout, "dynaqsim", dynaq.Version)
		return nil
	}

	stopProf, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	var data []byte
	if *config != "" {
		if name := scenarioFlagSet(fs); name != "" {
			return fmt.Errorf("-%s describes the scenario, which -config reads from %s (drop one of them)", name, *config)
		}
		data, err = os.ReadFile(*config)
	} else {
		data, err = sf.document()
	}
	if err != nil {
		return err
	}
	r, err := scenario.LoadWith(data, scenario.Overrides{Engine: *engineF})
	if err != nil {
		return err
	}
	if *seedsN > 1 {
		// Multi-seed mode aggregates across runs; single-run outputs make no
		// sense there.
		switch {
		case *teleDir != "":
			return errors.New("-seeds > 1 runs many simulations; -telemetry writes a single run's artifacts (drop one of them)")
		case *progress:
			return errors.New("-seeds > 1 interleaves runs; drop -progress")
		case *traceN > 0:
			return errors.New("-seeds > 1 reports aggregate throughput only; drop -trace")
		}
		return runSeeds(stdout, data, r.Document(), *seedsN, *parallel)
	}
	if *traceN > 0 {
		if err := r.SetTraceEvents(*traceN); err != nil {
			return err
		}
	}
	var tele *telemetry.Run
	if *teleDir != "" {
		tele, err = telemetry.NewRun(*teleDir, telemetry.Manifest{
			Tool:         "dynaqsim",
			Version:      dynaq.Version,
			ScenarioHash: telemetry.Hash(data),
			Seed:         r.Seed(),
			Scheme:       r.Scheme(),
			Engine:       r.Engine(),
			Args:         args,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(tele.Dir(), telemetry.ScenarioFile), data, 0o644); err != nil {
			return err
		}
		r.SetTelemetry(tele)
	}
	if *progress {
		r.SetProgress(os.Stderr)
	}
	res, outcome, err := r.RunOutcome()
	if err != nil {
		return err
	}
	if res.Static != nil {
		err = printStatic(stdout, r.Document(), res.Static, r.Trace())
	} else {
		printFCT(stdout, r, res.Dynamic)
	}
	if err != nil || tele == nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tele.Dir(), telemetry.OutcomeFile), outcome, 0o644); err != nil {
		return err
	}
	for _, e := range res.Summary() {
		tele.Summarize(e.Key, e.Value)
	}
	if rec := r.Trace(); rec != nil {
		if err := writeTrace(tele.Dir(), rec); err != nil {
			return err
		}
	}
	return tele.Close()
}

// scenarioFlagSet returns the name of the first scenario-describing flag
// given on fs's command line, or "" when there is none.
func scenarioFlagSet(fs *flag.FlagSet) string {
	described := flag.NewFlagSet("", flag.ContinueOnError)
	new(scenarioFlags).register(described)
	name := ""
	fs.Visit(func(f *flag.Flag) {
		if name == "" && described.Lookup(f.Name) != nil {
			name = f.Name
		}
	})
	return name
}

// runSeeds reruns the static document across n derived seeds on a worker
// pool and prints the aggregate-throughput statistics. Each seed runs a fully
// independent simulation, so the reported stats are identical at any
// -parallel setting.
func runSeeds(w io.Writer, data []byte, doc scenario.Document, n, parallel int) error {
	if doc.Kind != "static" {
		return fmt.Errorf("-seeds > 1 averages a static scenario's aggregate throughput; this one is %s", doc.Kind)
	}
	end := units.Time(units.Seconds(doc.DurationS))
	warm := end / 5
	st, err := experiment.RunSeeds(n, experiment.Options{Seed: doc.Seed, Parallel: parallel},
		func(o experiment.Options) (float64, error) {
			rs, err := scenario.LoadWith(data, scenario.Overrides{Seed: &o.Seed})
			if err != nil {
				return 0, err
			}
			res, _, err := rs.RunOutcome()
			if err != nil {
				return 0, err
			}
			return float64(res.Static.AvgAggregate(warm, end)) / 1e6, nil
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scheme=%s aggregate Mbps after warmup, %d seeds on %d workers:\n  %s\n",
		doc.Scheme, n, experiment.Workers(parallel, n), st)
	return nil
}

// printStatic reports a static run: the per-queue throughput series, the
// per-queue summary after a warmup of the first fifth, and the -trace
// events, fault timeline and guardrail verdict when the run has them.
func printStatic(w io.Writer, doc scenario.Document, res *experiment.StaticResult, trace *metrics.EventRecorder) error {
	k, _ := sched.LookupKind(doc.Sched) // validated at load
	fmt.Fprintf(w, "scheme=%s sched=%s rate=%v buffer=%v queues=%d rtt=%vus\n\n",
		doc.Scheme, k.Name, units.Rate(doc.RateGbps*1e9), units.ByteSize(doc.BufferB), doc.Queues, doc.RTTUs)
	fmt.Fprintf(w, "%-10s", "time")
	for q := 0; q < doc.Queues; q++ {
		fmt.Fprintf(w, "  q%d(Mbps)", q)
	}
	fmt.Fprintf(w, "  aggregate\n")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%-10s", s.At.String())
		for _, rate := range s.PerQueue {
			fmt.Fprintf(w, "  %8.1f", float64(rate)/1e6)
		}
		fmt.Fprintf(w, "  %8.1f\n", float64(s.Aggregate)/1e6)
	}
	end := units.Time(units.Seconds(doc.DurationS))
	warm := end / 5
	fmt.Fprintf(w, "\nsummary (after warmup):\n")
	for q := 0; q < doc.Queues; q++ {
		fmt.Fprintf(w, "  queue %d: %8.1f Mbps  share %.3f\n", q,
			float64(res.AvgThroughput(q, warm, end))/1e6, res.ShareOf(q, warm, end))
	}
	fmt.Fprintf(w, "  aggregate: %.1f Mbps, drops at bottleneck: %d\n",
		float64(res.AvgAggregate(warm, end))/1e6, res.Drops)
	if trace != nil {
		fmt.Fprintf(w, "\nbottleneck events: %s\n", trace.Summary())
		if err := trace.Dump(w); err != nil {
			return err
		}
	}
	if len(res.FaultTimeline) > 0 {
		fmt.Fprintf(w, "\nfault timeline (%d transitions, %d lost, %d corrupted on links):\n",
			len(res.FaultTimeline), res.LinkLost, res.LinkCorrupted)
		for _, tr := range res.FaultTimeline {
			fmt.Fprintf(w, "  %s\n", tr)
		}
	}
	if doc.Guard {
		printViolations(w, res.ViolationTotal, res.Violations)
	}
	return nil
}

// printFCT reports an fct run: flow counts, the fluid engine's work when it
// ran, FCT headlines, and fault activity and guardrail verdict when the
// scenario scheduled them.
func printFCT(w io.Writer, r *scenario.Runner, d *experiment.DynamicResult) {
	doc := r.Document()
	fmt.Fprintf(w, "%s scenario (%s, load %.0f%%, engine %s): %d/%d flows\n",
		doc.Kind, doc.Scheme, doc.Load*100, r.Engine(), d.Completed, d.Generated)
	if fl := d.Fluid; fl != nil {
		fmt.Fprintf(w, "engine events %d  rate recomputes %d  demotions %d  promotions %d\n",
			d.Events, fl.Recomputes, fl.Demotions, fl.Promotions)
	}
	fmt.Fprintf(w, "avg FCT overall %.2fms  small %.2fms  large %.2fms  p99 small %.2fms\n",
		d.FCT.Avg(metrics.AllFlows).Seconds()*1e3,
		d.FCT.Avg(metrics.SmallFlows).Seconds()*1e3,
		d.FCT.Avg(metrics.LargeFlows).Seconds()*1e3,
		d.FCT.Percentile(metrics.SmallFlows, 0.99).Seconds()*1e3)
	if n := len(d.FaultTimeline); n > 0 {
		fmt.Fprintf(w, "faults: %d transitions, %d lost, %d corrupted on links\n", n, d.LinkLost, d.LinkCorrupted)
	}
	if doc.Guard {
		printViolations(w, d.ViolationTotal, d.Violations)
	}
}

// printViolations reports the guardrail outcome: silence is not a pass, so
// the clean case is stated explicitly.
func printViolations(w io.Writer, total int64, recorded []faults.Violation) {
	if total == 0 {
		fmt.Fprintf(w, "\nguardrail: no invariant violations\n")
		return
	}
	fmt.Fprintf(w, "\nguardrail: %d violations (showing %d):\n", total, len(recorded))
	for _, v := range recorded {
		fmt.Fprintf(w, "  %s\n", v)
	}
}

// writeTrace dumps the recorder's retained events as port_events.jsonl inside
// the run's artifact directory.
func writeTrace(dir string, rec *metrics.EventRecorder) error {
	f, err := os.Create(filepath.Join(dir, telemetry.PortEventsFile))
	if err != nil {
		return err
	}
	if err := dumpJSON(f, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpJSON writes events to w as JSONL, one event per line, with a fixed
// field order so two identical runs produce byte-identical output. Events
// whose packet was synthesized away (nil Pkt) omit the packet fields.
func dumpJSON(w io.Writer, events []netsim.PortEvent) error {
	var buf []byte
	for _, ev := range events {
		fields := []telemetry.Field{telemetry.F("queue", ev.Queue)}
		if p := ev.Pkt; p != nil {
			fields = append(fields,
				telemetry.F("flow", int64(p.Flow)),
				telemetry.F("src", int64(p.Src)),
				telemetry.F("dst", int64(p.Dst)),
				telemetry.F("seq", p.Seq),
				telemetry.F("size", int64(p.Size)),
				telemetry.F("class", int64(p.Class)))
		}
		buf = telemetry.AppendEvent(buf[:0], ev.At, ev.Kind.String(), fields...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
