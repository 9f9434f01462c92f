package figures

import (
	"fmt"
	"testing"

	"dynaq/internal/experiment"
)

// The per-figure benchmarks regenerate each evaluation result at quick scale
// so `go test -bench=.` stays laptop-friendly; the custom metrics they report
// are the figure's headline numbers, and cmd/experiments regenerates the
// recorded results at standard/full scale. Grid figures (8, 9, 13,
// ext-closedloop) run their cells on GOMAXPROCS workers, so `go test -cpu 1`
// is the sequential baseline. Results are identical either way — only
// wall-clock changes.

func BenchmarkFig01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig1(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "share", "queue 2"), "q2share")
	}
}

func BenchmarkFig03(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig3(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "queue1 share (ideal 0.5)", experiment.DynaQ), "dynaq-q1share")
	}
}

// BenchmarkFig04 reads Fig 4, the queue-evolution view of Fig 3's runs.
func BenchmarkFig04(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig3(quick)
		if err != nil {
			b.Fatal(err)
		}
		row, err := r.find(string(experiment.DynaQ))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(row.Trace)), "trace-samples")
	}
}

func BenchmarkFig05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig5(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "Jain", experiment.DynaQ, phases[0]), "dynaq-jain")
	}
}

func BenchmarkFig06(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig6(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "weighted Jain", experiment.DynaQ), "dynaq-wjain")
	}
}

func BenchmarkFig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig7(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "Jain", experiment.DynaQ, phases[0]), "mixed-jain")
	}
}

func BenchmarkFig08(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig8(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "avg small", experiment.DynaQ)/1e9, "dynaq-small-ms")
	}
}

func BenchmarkFig09(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig9(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "avg small", experiment.DynaQ)/1e9, "dynaq-small-ms")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig10(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "mean Jain", experiment.DynaQ), "dynaq-jain")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig11(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "mean Jain", experiment.DynaQ), "dynaq-jain")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig12(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "mean Jain", experiment.DynaQ), "dynaq-jain")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig13(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "avg overall", experiment.DynaQ)/1e9, "dynaq-overall-ms")
	}
}

// BenchmarkExtClosedLoop regenerates the closed-loop Fig 8 variant.
func BenchmarkExtClosedLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := ExtClosedLoop(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(value(b, r, "avg small", experiment.DynaQ)/1e9, "dynaq-small-ms")
	}
}

var quick = experiment.Options{Scale: experiment.Quick, Seed: 1}

// phases are the Fig. 5/7 rows' phase labels, all four queues active first.
var phases = []string{"4 queues", "3 queues", "2 queues", "1 queue"}

// value reads the named column of f's one row labelled with every label
// given (each printed with fmt.Sprint), failing the benchmark on an unknown
// name.
func value(b *testing.B, f *Figure, column string, labels ...any) float64 {
	b.Helper()
	ls := make([]string, len(labels))
	for i, l := range labels {
		ls[i] = fmt.Sprint(l)
	}
	v, err := f.Value(column, ls...)
	if err != nil {
		b.Fatal(err)
	}
	return v
}
