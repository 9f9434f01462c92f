package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// benchWorkloads are bench's four simulation workloads, whose documents
// BenchmarkCell and TestBenchCellsTrajectory read in place.
var benchWorkloads = []string{"star_packet", "leafspine_packet", "fattree_flow", "leafspine_hybrid"}

// benchCellSeed is the seed of bench's first timed cell at -seed 1.
const benchCellSeed = 4096

// loadWorkload loads bench's workload document name at seed.
func loadWorkload(tb testing.TB, name string, seed int64) *Runner {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	r, err := LoadWith(data, Overrides{Seed: &seed})
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return r
}

// cellRun is one run of a workload cell: its events, completed flows and
// offered MSS-sized packets, the unit bench's per-cell metrics divide by.
type cellRun struct {
	events, completed int64
	kpkt              float64 // thousands of offered packets
}

func runWorkload(tb testing.TB, r *Runner) cellRun {
	tb.Helper()
	res, err := r.Run()
	if err != nil {
		tb.Fatal(err)
	}
	d := res.Dynamic
	mss := r.params.MTU - transport.HeaderSize
	var pkts int64
	for _, rec := range d.FCT.Records() {
		pkts += int64((rec.Size + mss - units.Byte) / mss)
	}
	return cellRun{events: d.Events, completed: int64(d.Completed), kpkt: float64(pkts) / 1e3}
}

// BenchmarkCell runs each of bench's workload cells at bench's first seed,
// one Runner.Run per iteration, and reports the cell's cost per simulated
// event, its events, its mallocs (allocs/op) and its mallocs per 1000
// offered MSS-sized packets (bench's unit_allocs for that one cell). It is not a gate. To compare
// two trees, build each one's test binary (go test -c) and run ten
// interleaved pairs:
//
//	./scenario.test -test.run '^$' -test.bench BenchmarkCell -test.cpu 1 -test.benchtime 5x
//
// then take each side's median ns/event and the parent's own spread.
// BENCH_cells.json at the module root keeps one entry per performance
// change.
func BenchmarkCell(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			r := loadWorkload(b, name, benchCellSeed)
			b.ReportAllocs()
			var first cellRun
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := runWorkload(b, r)
				if i == 0 {
					first = c
				} else if c != first {
					b.Fatalf("run %d: %+v, run 0: %+v", i, c, first)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n/float64(first.events), "ns/event")
			b.ReportMetric(float64(first.events), "events/op")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n/first.kpkt, "mallocs/kpkt")
		})
	}
}

// benchCells is BENCH_cells.json: one entry per performance change, the
// last one current.
type benchCells struct {
	Entries []struct {
		Label     string `json:"label"`
		Seed      int64  `json:"seed"`
		Workloads map[string]struct {
			Events    int64 `json:"events"`
			Completed int64 `json:"flows_completed"`
		} `json:"workloads"`
	} `json:"entries"`
}

// TestBenchCellsTrajectory reruns each workload at the seed of
// BENCH_cells.json's last entry and requires the events and completed flows
// it recorded. A change that moves a cell's event count therefore has to
// append an entry with its own measurements, and the trajectory stays
// comparable entry to entry.
func TestBenchCellsTrajectory(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_cells.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cells benchCells
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells.Entries) == 0 {
		t.Fatal("BENCH_cells.json has no entries")
	}
	last := cells.Entries[len(cells.Entries)-1]
	for _, name := range benchWorkloads {
		t.Run(name, func(t *testing.T) {
			want, ok := last.Workloads[name]
			if !ok {
				t.Fatalf("entry %q records no %s cell", last.Label, name)
			}
			got := runWorkload(t, loadWorkload(t, name, last.Seed))
			if got.events != want.Events || got.completed != want.Completed {
				t.Errorf("%s at seed %d: %d events and %d flows completed, entry %q recorded %d and %d; a change that moves them appends an entry",
					name, last.Seed, got.events, got.completed, last.Label, want.Events, want.Completed)
			}
		})
	}
}
