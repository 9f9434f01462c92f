// Command bench is the repository's benchmark: six workloads, from one
// congested Fig 8 port to the coordinator's dispatch path, measured end to
// end with tracing off and layer by layer with it on. See README.md.
//
//	go run ./bench -seed 1                 every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace          every workload traced, per-layer metrics
//	go run ./bench -workload star_packet   one workload; the last line is a JSON result
//	go run ./bench -compare a.json b.json  compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what a workload needs to know about the run.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string // where the traced run writes its span files
	scratch string // DataDirs and telemetry artifacts; removed when the run ends
}

// reps scales a workload's rep count, given for -seconds 10, to the run.
func (c config) reps(per10s int) int {
	if c.smoke {
		return 2
	}
	return max(3, int(math.Round(float64(per10s)*c.seconds/10)))
}

// setups is how many times a run repeats its set-up to report a median.
func (c config) setups() int {
	if c.smoke {
		return 1
	}
	return 5
}

// driverDur is the least time a layer driver measures.
func (c config) driverDur() time.Duration {
	if c.smoke {
		return 2 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// workloadDef is one named workload.
type workloadDef struct {
	name  string
	run   func(config) *report // tracing off: end-to-end metrics
	trace func(config) *report // tracing on: per-layer metrics
	// diskBound marks the coordinator workloads. Their time goes to
	// creating directories under the DataDir, so it follows the state of
	// that filesystem; -compare holds them to the bounds only when both
	// result sets were measured on tmpfs.
	diskBound bool
}

func workloads() []workloadDef {
	var out []workloadDef
	for _, spec := range simSpecs {
		spec := spec
		out = append(out, workloadDef{
			name:  spec.name,
			run:   func(c config) *report { return runSim(c, spec) },
			trace: func(c config) *report { return traceSim(c, spec) },
		})
	}
	return append(out,
		workloadDef{name: "svc_dispatch", run: runSvcDispatch, trace: traceSvcDispatch, diskBound: true},
		workloadDef{name: "svc_cached", run: runSvcCached, trace: traceSvcCached, diskBound: true},
	)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	DataDirFS  string    `json:"datadir_fs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Reports    []*report `json:"workloads"`
}

// contractResult is the one-line JSON a single-workload run ends with.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// boolArgs rewrites "-trace 1" into "-trace=1": the flag package reads a
// boolean's value only from the same argument, and both spellings are in use.
func boolArgs(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		out = append(out, a)
		name := strings.TrimLeft(a, "-")
		if len(name) == len(a) || i+1 == len(args) {
			continue
		}
		for _, n := range names {
			if name == n && (args[i+1] == "0" || args[i+1] == "1") {
				out[len(out)-1] = a + "=" + args[i+1]
				i++
			}
		}
	}
	return out
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

// realMain is main with its arguments and standard output passed in.
func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload and end with a one-line JSON result (default: all six)")
		seed     = fs.Int64("seed", 1, "the only input that varies: scenario seeds and job seed lists derive from it")
		seconds  = fs.Float64("seconds", 10, "how long one workload measures, on the reference box")
		traced   = fs.Bool("trace", false, "run traced and print the per-layer metrics instead of the end-to-end ones")
		smoke    = fs.Bool("smoke", false, "tiny sizes: checks that everything runs, measures nothing")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out      = fs.String("out", "", "write the results to this JSON file")
		dataDir  = fs.String("datadir", filepath.Join("bench", "out"), "where coordinator DataDirs and telemetry artifacts go while the run lasts")
	)
	if err := fs.Parse(boolArgs(args, "trace", "smoke")); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}

	selected := workloads()
	if *workload != "" {
		selected = nil
		for _, w := range workloads() {
			if w.name == *workload {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
	}

	outRoot := filepath.Join("bench", "out")
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	// DataDirs default to the checkout and are removed in one go when the
	// run ends: on a filesystem mounted with online discard, deleting a
	// rep's thousands of directories stalls the reps that follow it.
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*dataDir, "scratch-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: outRoot, scratch: scratch}
	res := resultFile{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDirFS:  fsType(*dataDir),
		Seed:       *seed,
		Seconds:    *seconds,
		Traced:     *traced,
	}
	fmt.Fprintf(stdout, "bench: %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%v datadir=%s datadir_fs=%s\n",
		res.GoVersion, res.NProc, res.GOMAXPROCS, res.Seed, res.Seconds, res.Traced, *dataDir, res.DataDirFS)
	fmt.Fprintln(stdout, "bench: load is generated in this process: simulation cells on one goroutine; service workloads as closed loops,")
	fmt.Fprintln(stdout, "bench: one submitter connection and one stub-worker connection to an in-process coordinator on loopback")

	defs := endToEnd
	if *traced {
		defs = perLayer
	}
	ok := true
	for _, w := range selected {
		var rep *report
		if *traced {
			rep = w.trace(cfg)
		} else {
			rep = w.run(cfg)
		}
		rep.fill(defs)
		printReport(stdout, rep, defs)
		res.Reports = append(res.Reports, rep)
		ok = ok && rep.correct()
	}

	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", *out, err)
			ok = false
		}
	}
	if *workload != "" {
		rep := res.Reports[0]
		line := contractResult{
			Correct:   rep.correct(),
			Attempted: max(rep.Attempted, 1),
			Failed:    rep.Failed,
			Metrics:   make(map[string]contractMetric, len(defs)),
		}
		for _, d := range defs {
			line.Metrics[d.Name] = contractMetric{Value: rep.Metrics[d.Name].Median, Unit: d.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
	}
	if !ok {
		return 1
	}
	return 0
}

// printReport prints one workload's metrics by name with unit, median, min,
// max and sample count, then its raw numbers, counts and failures.
func printReport(w io.Writer, r *report, defs []metricDef) {
	fmt.Fprintf(w, "\n== %s  (work unit: %s)\n", r.Workload, r.WorkUnit)
	fmt.Fprintf(w, "   %-34s %-6s %14s %14s %14s %6s\n", "metric", "unit", "median", "min", "max", "n")
	row := func(name string, s sample) {
		fmt.Fprintf(w, "   %-34s %-6s %14.6g %14.6g %14.6g %6d\n", name, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
	for _, d := range defs {
		row(d.Name, r.Metrics[d.Name])
	}
	for _, name := range sortedKeys(r.Info) {
		row("("+name+")", r.Info[name])
	}
	if len(r.Counts) > 0 {
		var parts []string
		for _, name := range sortedKeys(r.Counts) {
			parts = append(parts, fmt.Sprintf("%s=%d", name, r.Counts[name]))
		}
		fmt.Fprintf(w, "   counts: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(w, "   ops_attempted=%d ops_failed=%d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAIL: %s\n", e)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fsType names the filesystem dir lives on, from /proc/self/mountinfo.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		pre, post, ok := strings.Cut(line, " - ")
		f := strings.Fields(pre)
		if !ok || len(f) < 5 {
			continue
		}
		mount := f[4]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) >= len(best) {
			best, fstype = mount, strings.Fields(post)[0]
		}
	}
	return fstype
}

// compareFiles prints, for each workload and end-to-end metric, both medians,
// how much worse b is than a, and the bound; exact counts must be equal.
func compareFiles(w io.Writer, pathA, pathB string) int {
	load := func(path string) (*resultFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, rf := range []*resultFile{a, b} {
		fmt.Fprintf(w, "%s nproc=%d GOMAXPROCS=%d datadir_fs=%s seed=%d seconds=%g traced=%v\n",
			rf.GoVersion, rf.NProc, rf.GOMAXPROCS, rf.DataDirFS, rf.Seed, rf.Seconds, rf.Traced)
	}
	//dynaqlint:allow float-eq Seconds is a copied flag value, never an arithmetic result
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds && a.Traced == b.Traced
	if !sameInputs {
		fmt.Fprintln(w, "inputs differ: exact counts are not compared")
	}
	byName := make(map[string]*report)
	for _, r := range b.Reports {
		byName[r.Workload] = r
	}
	onTmpfs := a.DataDirFS == "tmpfs" && b.DataDirFS == "tmpfs"
	ungated := make(map[string]bool)
	for _, wl := range workloads() {
		ungated[wl.name] = wl.diskBound && !onTmpfs
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, ra := range a.Reports {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-18s missing from %s\n", ra.Workload, pathB)
			bad++
			continue
		}
		if !a.Traced {
			for _, d := range endToEnd {
				va, vb := ra.Metrics[d.Name].Median, rb.Metrics[d.Name].Median
				worse := (vb - va) / va
				if d.Better == "higher" {
					worse = (va - vb) / va
				}
				verdict := ""
				switch {
				case finite(worse) && worse <= d.Bound:
				case ungated[ra.Workload]:
					verdict = "  (not held to the bound: DataDir is not on tmpfs)"
				default:
					verdict = "  REGRESSION"
					bad++
				}
				fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
					ra.Workload, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
			}
		}
		if sameInputs {
			for _, name := range sortedKeys(ra.Counts) {
				if ra.Counts[name] != rb.Counts[name] {
					fmt.Fprintf(w, "%-18s count %s: %d vs %d  MISMATCH\n", ra.Workload, name, ra.Counts[name], rb.Counts[name])
					bad++
				}
			}
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%-18s ops_failed: %d vs %d\n", ra.Workload, ra.Failed, rb.Failed)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d problem(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "within bounds; exact counts equal")
	return 0
}
