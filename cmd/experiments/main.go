// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig all            # every figure at standard scale
//	experiments -fig 5,6,10         # selected figures
//	experiments -fig 8 -scale full  # paper-scale parameters
//	experiments -fig cycles         # the §IV-A hardware cost analysis
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynaq"
	"dynaq/internal/experiment"
	"dynaq/internal/telemetry"
)

type renderer interface{ Table() string }

type figure struct {
	name, desc string
	run        func(o experiment.Options) (renderer, error)
}

// figures lists every figure in print order. Figures 3 and 4 are two views
// of the same three runs: they share one result, simulated once per list
// (the options are the invocation's) and printed under both ids.
func figures() []figure {
	var fig3 renderer
	var fig3Err error
	convergence := func(o experiment.Options) (renderer, error) {
		if fig3 == nil && fig3Err == nil {
			fig3, fig3Err = experiment.Fig3(o)
		}
		return fig3, fig3Err
	}
	return []figure{
		{"1", "violated fair sharing under BestEffort (motivation)", wrap(experiment.Fig1)},
		{"3", "throughput convergence, 2 active DRR queues", convergence},
		{"4", "queue length evolution (same runs as fig 3)", convergence},
		{"5", "bandwidth sharing, 4 DRR queues with departures", wrap(experiment.Fig5)},
		{"6", "weighted fair sharing, weights 4:3:2:1", wrap(experiment.Fig6)},
		{"7", "mixed transports: NewReno + CUBIC under DynaQ", wrap(experiment.Fig7)},
		{"8", "FCT vs non-ECN schemes, SPQ+DRR, web search", wrap(experiment.Fig8)},
		{"9", "FCT vs ECN schemes (DCTCP), SPQ+DRR, web search", wrap(experiment.Fig9)},
		{"10", "bandwidth sharing on 10Gbps links", wrap(experiment.Fig10)},
		{"11", "bandwidth sharing on 100Gbps links (jumbo)", wrap(experiment.Fig11)},
		{"12", "100Gbps with extreme flow counts", wrap(experiment.Fig12)},
		{"13", "leaf-spine FCT, 4 workloads, ECMP", wrap(experiment.Fig13)},
		{"cycles", "§IV-A ASIC cycle budget of Algorithm 1", func(experiment.Options) (renderer, error) {
			return experiment.Cycles(), nil
		}},
		{"ablation-victim", "victim selection: max-extra vs naive max-threshold (§III-B)", wrap(experiment.AblationVictim)},
		{"ablation-wbdp", "satisfaction threshold: Eq.3 buffer share vs WBDP", wrap(experiment.AblationSatisfaction)},
		{"ablation-tcndrop", "TCN-drop strawman: dequeue dropping idles the link (§II-C)", wrap(experiment.AblationDequeueDrop)},
		{"ext-microburst", "microburst absorption: DynaQ vs BarberQ eviction vs BestEffort", wrap(experiment.ExtMicroburst)},
		{"ext-sharedmem", "shared-memory DT vs dedicated per-port buffers (§II-C)", wrap(experiment.ExtSharedMemory)},
		{"ext-protocol", "mixed DCTCP + CUBIC tenants: ECN schemes break, DynaQ holds (§II-B)", wrap(experiment.ExtProtocolDependence)},
		{"ext-tofino", "programmable-switch model: DynaQ on stale deq_qdepth (§IV-A)", wrap(experiment.ExtTofino)},
		{"ext-zoo", "transport zoo: reno/cubic/dctcp/timely queues under one scheme", wrap(experiment.ExtTransportZoo)},
		{"ext-closedloop", "Fig 8 with the §V-A2 request/response application (closed loop)", wrap(experiment.ExtClosedLoop)},
		{"ext-dynaq-ecn", "DynaQ drop mode (TCP) vs ECN mode (PMSB marking, DCTCP) (§III-B3)", wrap(experiment.ExtDynaQECNMode)},
		{"ext-faults", "scripted faults: flapping NIC/spine + lossy optics, guardrail armed", wrap(experiment.ExtFaults)},
		{"2", "workload flow-size distributions (Figure 2)", wrap(experiment.Fig2)},
	}
}

func wrap[T renderer](f func(experiment.Options) (T, error)) func(experiment.Options) (renderer, error) {
	return func(o experiment.Options) (renderer, error) { return f(o) }
}

// errFlags marks a command line the flag package has already reported.
var errFlags = errors.New("bad flags")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		if !errors.Is(err, errFlags) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
}

// run is the command: args are the flags, stdout receives each figure's
// table.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "comma-separated figure ids, or 'all'")
		scale    = fs.String("scale", "standard", "quick | standard | full")
		engineF  = fs.String("engine", "", "simulation engine for the FCT figures: packet (default) | flow | hybrid; static figures always run at packet level")
		seed     = fs.Int64("seed", 1, "random seed")
		parallel = fs.Int("parallel", 0, "worker goroutines for a figure's independent simulation cells, static and FCT figures alike (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		list     = fs.Bool("list", false, "list available figures")
		teleDir  = fs.String("telemetry", "", "write per-figure run artifacts (manifest + result JSON) into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		version  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	if *version {
		fmt.Fprintln(stdout, "experiments", dynaq.Version)
		return nil
	}

	stopProf, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	if *list {
		for _, f := range figures() {
			fmt.Fprintf(stdout, "  %-7s %s\n", f.name, f.desc)
		}
		return nil
	}
	lvl := experiment.ScaleLevel(-1)
	for _, l := range []experiment.ScaleLevel{experiment.Quick, experiment.Standard, experiment.Full} {
		if l.String() == *scale {
			lvl = l
		}
	}
	if lvl < 0 {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	engine, err := experiment.ParseEngineMode(*engineF)
	if err != nil {
		return err
	}
	opts := experiment.Options{Scale: lvl, Seed: *seed, Parallel: *parallel, Engine: engine}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	ran := 0
	for _, f := range figures() {
		if *fig != "all" && !want[f.name] {
			continue
		}
		ran++
		//dynaqlint:allow determinism wall-clock progress timing for the operator; never feeds simulation state
		start := time.Now()
		fmt.Fprintf(stdout, "=== Figure %s: %s (scale=%s) ===\n", f.name, f.desc, lvl)
		res, err := f.run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		if *teleDir != "" {
			if err := writeFigureArtifacts(*teleDir, f.name, lvl.String(), string(engine), *seed, args, res); err != nil {
				return fmt.Errorf("figure %s: telemetry: %w", f.name, err)
			}
		}
		fmt.Fprint(stdout, res.Table())
		//dynaqlint:allow determinism wall-clock progress timing for the operator; never feeds simulation state
		fmt.Fprintf(stdout, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	if ran == 0 {
		return fmt.Errorf("no figure matched %q (use -list)", *fig)
	}
	return nil
}

// writeFigureArtifacts records one figure run under <dir>/<figure>: a
// manifest (hashing the figure/scale/seed tuple that fully determines the
// run) and the figure's result rendered as JSON. Struct field order keeps
// result.json byte-stable across identical runs.
func writeFigureArtifacts(dir, figure, scale, engine string, seed int64, args []string, res renderer) error {
	sub := filepath.Join(dir, figure)
	canonical := fmt.Sprintf("fig=%s scale=%s engine=%s seed=%d", figure, scale, engine, seed)
	man := telemetry.Manifest{
		Tool:         "experiments",
		Version:      dynaq.Version,
		ScenarioHash: telemetry.Hash([]byte(canonical)),
		Seed:         seed,
		Scheme:       figure,
		Engine:       engine,
		Args:         args,
	}
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	if err := telemetry.WriteManifest(sub, man, []telemetry.SummaryEntry{{Key: "scale", Value: scale}}); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(sub, "result.json"), append(data, '\n'), 0o644)
}
