// Command benchjson runs the repo's benchmark suite and records the results
// as machine-readable JSON, so CI can archive per-commit performance numbers
// (ns/op, allocs/op, events/s, figure headline metrics) as build artifacts
// and regressions can be diffed instead of eyeballed.
//
// It shells out to `go test -run ^$ -bench <re> -benchtime <n>` on the
// requested packages, echoes the raw output to stderr for the build log, and
// parses every "Benchmark..." result line into one entry keyed by unit.
//
// Usage:
//
//	benchjson                          # all benchmarks, 1 iteration, BENCH_<date>.json
//	benchjson -bench Engine -benchtime 100x
//	benchjson -out perf.json -pkg ./internal/sim
//
// It records; it does not judge. Comparing two commits is the job of the
// repo's benchmark (`go run ./bench`, `-compare a.json b.json`), which
// normalises per unit of work and knows each metric's run-to-run spread.
//
// Exit status: 0 on success, 1 when `go test` fails or no benchmark lines
// were found (a silent empty artifact would read as "all benchmarks gone").
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dynaq"
)

// Result is one benchmark line: the name as printed (including the -N
// GOMAXPROCS suffix), the iteration count, and every reported metric keyed
// by its unit (ns/op, B/op, allocs/op, events/s, figure metrics...).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the top-level artifact schema.
type Report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Bench      string   `json:"bench"`
	Benchtime  string   `json:"benchtime"`
	Packages   []string `json:"packages"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	benchRE := flag.String("bench", ".", "regexp selecting benchmarks (go test -bench)")
	benchtime := flag.String("benchtime", "1x", "per-benchmark time or iteration count (go test -benchtime)")
	out := flag.String("out", "", "output path (default BENCH_<utc-date>.json)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	var pkgs multiFlag
	flag.Var(&pkgs, "pkg", "package pattern to benchmark (repeatable; default ./...)")
	flag.Parse()
	if *showVersion {
		fmt.Println("benchjson", dynaq.Version)
		return
	}
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	// Wall-clock here stamps the artifact filename and metadata; nothing
	// simulated depends on it.
	date := time.Now().UTC().Format("2006-01-02") //dynaqlint:allow determinism artifact timestamp, not simulation state
	path := *out
	if path == "" {
		path = "BENCH_" + date + ".json"
	}

	args := append([]string{"test", "-run", "^$", "-bench", *benchRE, "-benchtime", *benchtime}, pkgs...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	// Tee: CI logs see the familiar go test output, the parser sees a copy.
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stderr.Write(buf.Bytes())
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), runErr)
		os.Exit(1)
	}

	results := parseBenchLines(buf.String())
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark result lines in go test output\n")
		os.Exit(1)
	}

	report := Report{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Bench:      *benchRE,
		Benchtime:  *benchtime,
		Packages:   pkgs,
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), path)
}

// parseBenchLines extracts every benchmark result from go test output. The
// line format is fixed by the testing package:
//
//	BenchmarkName-8   1000   1234 ns/op   0 allocs/op   8.1e+06 events/s
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchLines(output string) []Result {
	var results []Result
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		if len(r.Metrics) == 0 {
			continue
		}
		results = append(results, r)
	}
	return results
}

// multiFlag collects repeated -pkg values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
