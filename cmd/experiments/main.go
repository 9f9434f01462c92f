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
	"dynaq/internal/figures"
	"dynaq/internal/telemetry"
)

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
		teleDir  = fs.String("telemetry", "", "write per-figure run artifacts (manifest, result JSON, every cell's scenario document and outcome) into this directory")
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
		for _, f := range figures.Figures() {
			fmt.Fprintf(stdout, "  %-7s %s\n", f.ID, f.Desc)
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
	for _, f := range figures.Figures() {
		if *fig != "all" && !want[f.ID] {
			continue
		}
		ran++
		//dynaqlint:allow determinism wall-clock progress timing for the operator; never feeds simulation state
		start := time.Now()
		fmt.Fprintf(stdout, "=== Figure %s: %s (scale=%s) ===\n", f.ID, f.Desc, lvl)
		res, err := f.Run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		if *teleDir != "" {
			// The figure/scale/seed tuple fully determines the run.
			canonical := fmt.Sprintf("fig=%s scale=%s engine=%s seed=%d", f.ID, lvl, engine, *seed)
			man := telemetry.Manifest{
				Tool:         "experiments",
				Version:      dynaq.Version,
				ScenarioHash: telemetry.Hash([]byte(canonical)),
				Seed:         *seed,
				Scheme:       f.ID,
				Engine:       string(engine),
				Args:         args,
			}
			if err := res.WriteArtifacts(filepath.Join(*teleDir, f.ID), man, lvl.String()); err != nil {
				return fmt.Errorf("figure %s: telemetry: %w", f.ID, err)
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
