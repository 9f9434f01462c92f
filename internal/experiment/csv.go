package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dynaq/internal/metrics"
)

// CSVDumper is implemented by results that carry plottable series (the
// time-series figures: 3/4/5/7/10/11/12). WriteCSV writes one file per
// series into dir, returning the paths written.
type CSVDumper interface {
	WriteCSV(dir string) ([]string, error)
}

// writeThroughputCSV renders one scheme's throughput samples.
func writeThroughputCSV(w io.Writer, samples []metrics.ThroughputSample) error {
	if len(samples) == 0 {
		return nil
	}
	fmt.Fprint(w, "time_s")
	for q := range samples[0].PerQueue {
		fmt.Fprintf(w, ",queue%d_mbps", q)
	}
	fmt.Fprintln(w, ",aggregate_mbps")
	for _, s := range samples {
		fmt.Fprintf(w, "%.6f", s.At.Seconds())
		for _, r := range s.PerQueue {
			fmt.Fprintf(w, ",%.3f", float64(r)/1e6)
		}
		fmt.Fprintf(w, ",%.3f\n", float64(s.Aggregate)/1e6)
	}
	return nil
}

// writeQueueCSV renders one scheme's queue-length trace.
func writeQueueCSV(w io.Writer, samples []metrics.QueueSample) error {
	if len(samples) == 0 {
		return nil
	}
	fmt.Fprint(w, "time_s")
	for q := range samples[0].PerQueue {
		fmt.Fprintf(w, ",queue%d_bytes", q)
	}
	fmt.Fprintln(w)
	for _, s := range samples {
		fmt.Fprintf(w, "%.9f", s.At.Seconds())
		for _, b := range s.PerQueue {
			fmt.Fprintf(w, ",%d", int64(b))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func dumpFile(dir, name string, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return "", err
	}
	return path, nil
}

// WriteCSV implements CSVDumper: per-scheme throughput series plus the
// Fig. 4 queue-length traces.
func (r *ConvergenceResult) WriteCSV(dir string) ([]string, error) {
	var paths []string
	for i, scheme := range r.Schemes {
		p, err := dumpFile(dir, fmt.Sprintf("fig3_throughput_%s.csv", scheme),
			func(w io.Writer) error { return writeThroughputCSV(w, r.Series[i]) })
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
		p, err = dumpFile(dir, fmt.Sprintf("fig4_queues_%s.csv", scheme),
			func(w io.Writer) error { return writeQueueCSV(w, r.Traces[i]) })
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// throughputCSVs writes one throughput series per scheme, named by name.
func throughputCSVs(dir string, schemes []Scheme, series [][]metrics.ThroughputSample, name func(Scheme) string) ([]string, error) {
	var paths []string
	for i, scheme := range schemes {
		p, err := dumpFile(dir, name(scheme), func(w io.Writer) error { return writeThroughputCSV(w, series[i]) })
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// WriteCSV implements CSVDumper for the phased experiments (Figs. 5/7).
func (r *PhasedResult) WriteCSV(dir string) ([]string, error) {
	return throughputCSVs(dir, r.Schemes, r.Series, func(s Scheme) string {
		return fmt.Sprintf("phased_throughput_%s.csv", s)
	})
}

// WriteCSV implements CSVDumper for the high-speed runs (Figs. 10-12).
func (r *HighSpeedResult) WriteCSV(dir string) ([]string, error) {
	return throughputCSVs(dir, r.Schemes, r.Series, func(s Scheme) string {
		return fmt.Sprintf("highspeed_%s_%s.csv", r.Rate, s)
	})
}

// WriteCSV implements CSVDumper for FCT figures: one row per (scheme,
// load) cell.
func (r *FCTResult) WriteCSV(dir string) ([]string, error) {
	p, err := dumpFile(dir, fmt.Sprintf("%s_fct.csv", r.Figure), func(w io.Writer) error {
		fmt.Fprintln(w, "load,scheme,avg_overall_ms,avg_small_ms,avg_large_ms,p99_small_ms,completed,generated")
		for _, c := range r.Cells {
			fmt.Fprintf(w, "%.2f,%s,%.4f,%.4f,%.4f,%.4f,%d,%d\n",
				c.Load, c.Scheme,
				c.AvgOverall.Seconds()*1e3, c.AvgSmall.Seconds()*1e3,
				c.AvgLarge.Seconds()*1e3, c.P99Small.Seconds()*1e3,
				c.Completed, c.Generated)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []string{p}, nil
}
