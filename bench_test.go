package dynaq

import (
	"testing"

	"dynaq/internal/experiment"
)

// benchOpts runs every figure at quick scale so `go test -bench=.` stays
// laptop-friendly; cmd/experiments regenerates the recorded results at
// standard/full scale. Grid figures (8, 9, 13, ext-closedloop) run their
// cells on GOMAXPROCS workers, so `go test -cpu 1` is the sequential
// baseline. Results are identical either way — only wall-clock changes.
var benchOpts = Options{Scale: ScaleQuick, Seed: 1}

// BenchmarkAlgorithm1 measures the software cost of one DynaQ decision on
// an 8-queue port (the §IV-A hardware analysis counts 7 clock cycles for
// the same operation).
func BenchmarkAlgorithm1(b *testing.B) {
	st := MustNew(192*KB, []int64{1, 1, 1, 1, 1, 1, 1, 1})
	backlog := make([]ByteSize, 8)
	lens := QueueLenFunc(func(i int) ByteSize { return backlog[i] })
	backlog[0] = st.Threshold(0) // pin queue 0 at its threshold: worst case
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backlog[0] = st.Threshold(0)
		st.Process(0, 1500, lens)
	}
}

// BenchmarkAlgorithm1Pass measures the fast path (arrival under
// threshold): line 1 only.
func BenchmarkAlgorithm1Pass(b *testing.B) {
	st := MustNew(192*KB, []int64{1, 1, 1, 1, 1, 1, 1, 1})
	lens := QueueLenFunc(func(int) ByteSize { return 0 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Process(i%8, 1500, lens)
	}
}

// The per-figure benchmarks below regenerate each evaluation result; the
// custom metrics they report are the figure's headline numbers.

func BenchmarkFig01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Share[1], "q2share")
	}
}

func BenchmarkFig03(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Share1[0], "dynaq-q1share")
	}
}

func BenchmarkFig04(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Traces[0])), "trace-samples")
	}
}

func BenchmarkFig05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.JainPerPhase[0][0], "dynaq-jain")
	}
}

func BenchmarkFig06(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig6(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WJain[0], "dynaq-wjain")
	}
}

func BenchmarkFig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.JainPerPhase[0][0], "mixed-jain")
	}
}

func BenchmarkFig08(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		c := r.Cell(experiment.DynaQ, r.Loads()[0])
		b.ReportMetric(float64(c.AvgSmall)/1e9, "dynaq-small-ms")
	}
}

func BenchmarkFig09(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig9(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		c := r.Cell(experiment.DynaQ, r.Loads()[0])
		b.ReportMetric(float64(c.AvgSmall)/1e9, "dynaq-small-ms")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanJain[0], "dynaq-jain")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanJain[0], "dynaq-jain")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanJain[0], "dynaq-jain")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunFig13(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		c := r.Cell(experiment.DynaQ, r.Loads()[0])
		b.ReportMetric(float64(c.AvgOverall)/1e9, "dynaq-overall-ms")
	}
}

// BenchmarkExtClosedLoop regenerates the closed-loop Fig 8 variant.
func BenchmarkExtClosedLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := RunExtClosedLoop(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		c := r.Cell(experiment.DynaQ, r.Loads()[0])
		b.ReportMetric(float64(c.AvgSmall)/1e9, "dynaq-small-ms")
	}
}
