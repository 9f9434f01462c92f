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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynaq"
	"dynaq/internal/experiment"
	"dynaq/internal/telemetry"
)

type renderer interface{ Table() string }

var figures = []struct {
	name string
	desc string
	run  func(o experiment.Options) (renderer, error)
}{
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

// convergence is Figures 3 and 4: two views of the same three runs, simulated
// once per invocation (the options are the invocation's) and printed under
// both ids.
func convergence(o experiment.Options) (renderer, error) {
	if !fig3Run.ran {
		fig3Run.res, fig3Run.err = experiment.Fig3(o)
		fig3Run.ran = true
	}
	return fig3Run.res, fig3Run.err
}

var fig3Run struct {
	res renderer
	err error
	ran bool
}

func wrap[T renderer](f func(experiment.Options) (T, error)) func(experiment.Options) (renderer, error) {
	return func(o experiment.Options) (renderer, error) { return f(o) }
}

func main() {
	fig := flag.String("fig", "all", "comma-separated figure ids, or 'all'")
	scale := flag.String("scale", "standard", "quick | standard | full")
	engineF := flag.String("engine", "", "simulation engine for the FCT figures: packet (default) | flow | hybrid; static figures always run at packet level")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for a figure's independent simulation cells, static and FCT figures alike (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
	list := flag.Bool("list", false, "list available figures")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	csvDir := flag.String("csv", "", "also write plottable CSV series into this directory")
	teleDir := flag.String("telemetry", "", "write per-figure run artifacts (manifest + result JSON) into this directory")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file at exit")
	progress := flag.Bool("progress", false, "print wall-clock progress heartbeats to stderr while figures run")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("experiments", dynaq.Version)
		return
	}

	stopProf, err := telemetry.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	if *list {
		for _, f := range figures {
			fmt.Printf("  %-7s %s\n", f.name, f.desc)
		}
		return
	}
	var lvl experiment.ScaleLevel
	switch *scale {
	case "quick":
		lvl = experiment.Quick
	case "standard":
		lvl = experiment.Standard
	case "full":
		lvl = experiment.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	engine, err := experiment.ParseEngineMode(*engineF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	opts := experiment.Options{Scale: lvl, Seed: *seed, Parallel: *parallel, Engine: engine}

	want := map[string]bool{}
	if *fig != "all" {
		for _, f := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	ran := 0
	for _, f := range figures {
		if *fig != "all" && !want[f.name] {
			continue
		}
		ran++
		//dynaqlint:allow determinism wall-clock progress timing for the operator; never feeds simulation state
		start := time.Now()
		if !*asJSON {
			fmt.Printf("=== Figure %s: %s (scale=%s) ===\n", f.name, f.desc, lvl)
		}
		stopTick := startTicker(*progress, f.name, start)
		res, err := f.run(opts)
		stopTick()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		if *teleDir != "" {
			if err := writeFigureArtifacts(*teleDir, f.name, lvl.String(), string(engine), *seed, res); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: telemetry: %v\n", f.name, err)
				os.Exit(1)
			}
		}
		if *asJSON {
			out := map[string]any{
				"figure": f.name,
				"scale":  lvl.String(),
				"seed":   *seed,
				//dynaqlint:allow determinism reports wall-clock runtime to the operator; excluded from result comparison
				"seconds": time.Since(start).Seconds(),
				"result":  res,
			}
			enc := json.NewEncoder(os.Stdout)
			if err := enc.Encode(out); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: encode: %v\n", f.name, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Print(res.Table())
		if *csvDir != "" {
			if d, ok := res.(experiment.CSVDumper); ok {
				paths, err := d.WriteCSV(*csvDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "figure %s: csv: %v\n", f.name, err)
					os.Exit(1)
				}
				for _, p := range paths {
					fmt.Printf("wrote %s\n", p)
				}
			}
		}
		//dynaqlint:allow determinism wall-clock progress timing for the operator; never feeds simulation state
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no figure matched %q (use -list)\n", *fig)
		os.Exit(2)
	}
}

// startTicker, when enabled, prints a wall-clock heartbeat to stderr every
// few seconds while a figure runs; the returned stop function silences it.
// The ticker only reports to the operator — nothing it touches feeds results.
func startTicker(enabled bool, name string, start time.Time) func() {
	if !enabled {
		return func() {}
	}
	t := time.NewTicker(5 * time.Second)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-t.C:
				//dynaqlint:allow determinism wall-clock heartbeat for the operator; never feeds simulation state
				fmt.Fprintf(os.Stderr, "experiments: figure %s running (%.0fs)\n", name, time.Since(start).Seconds())
			case <-done:
				return
			}
		}
	}()
	return func() {
		t.Stop()
		close(done)
	}
}

// writeFigureArtifacts records one figure run under <dir>/<figure>: a
// manifest (hashing the figure/scale/seed tuple that fully determines the
// run) and the figure's result rendered as JSON. Struct field order keeps
// result.json byte-stable across identical runs.
func writeFigureArtifacts(dir, figure, scale, engine string, seed int64, res renderer) error {
	sub := filepath.Join(dir, figure)
	canonical := fmt.Sprintf("fig=%s scale=%s engine=%s seed=%d", figure, scale, engine, seed)
	man := telemetry.Manifest{
		Tool:         "experiments",
		Version:      dynaq.Version,
		ScenarioHash: telemetry.Hash([]byte(canonical)),
		Seed:         seed,
		Scheme:       figure,
		Engine:       engine,
		Args:         os.Args[1:],
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
