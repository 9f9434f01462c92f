package experiment_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/figures"
)

var updateFigures = flag.Bool("update-figures", false, "rewrite testdata/figures_quick.golden from the code under test")

const figuresGolden = "testdata/figures_quick.golden"

// slowFigures take a second or more at quick scale, so the golden test runs
// them once, sequentially; CI diffs 10 and ext-faults across -parallel.
var slowFigures = map[string]bool{"10": true, "11": true, "12": true, "13": true, "ext-faults": true}

// quickFigure is one figure of the list run at quick scale, seed 1.
type quickFigure struct {
	id  string
	fig *figures.Figure
}

// runFigures runs every figure in the list at quick scale, seed 1, on
// parallel workers; skipSlow leaves out slowFigures.
func runFigures(parallel int, skipSlow bool) ([]quickFigure, error) {
	var out []quickFigure
	for _, f := range figures.Figures() {
		if skipSlow && slowFigures[f.ID] {
			continue
		}
		fig, err := f.Run(experiment.Options{Scale: experiment.Quick, Seed: 1, Parallel: parallel})
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.ID, err)
		}
		out = append(out, quickFigure{f.ID, fig})
	}
	return out, nil
}

// sequentialFigures is runFigures(1, false), run once for the tests that
// share it.
var sequentialFigures = sync.OnceValues(func() ([]quickFigure, error) { return runFigures(1, false) })

// render prints each figure's table under its id, the golden file's form.
func render(figs []quickFigure) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "=== %s ===\n%s", f.id, f.fig.Table())
	}
	return b.String()
}

// skipSlowTests skips a test that runs every figure in the list.
func skipSlowTests(t *testing.T) {
	t.Helper()
	if testing.Short() || experiment.RaceEnabled {
		// Under the detector's ~10x cost the package would not fit go test's
		// 10m default; the per-figure tests already run these grids on
		// GOMAXPROCS workers under -race.
		t.Skip("runs every figure in the list")
	}
}

// withoutSlow drops the slowFigures blocks from a rendering.
func withoutSlow(rendered string) string {
	var b strings.Builder
	slow := false
	for _, line := range strings.SplitAfter(rendered, "\n") {
		if id, ok := strings.CutPrefix(line, "=== "); ok {
			slow = slowFigures[strings.TrimSuffix(id, " ===\n")]
		}
		if !slow {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestFiguresQuickGolden compares every figure's quick table with the
// committed one: all of them sequentially, and all but slowFigures on four
// workers. The file must not change in a refactor; -update-figures rewrites
// it.
func TestFiguresQuickGolden(t *testing.T) {
	skipSlowTests(t)
	seq, err := sequentialFigures()
	if err != nil {
		t.Fatal(err)
	}
	if *updateFigures {
		if err := os.WriteFile(figuresGolden, []byte(render(seq)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-figures to create it)", err)
	}
	if got := render(seq); got != string(want) {
		t.Errorf("Parallel=1: figure tables differ from %s\n%s", figuresGolden, firstDiff(got, string(want)))
	}
	par, err := runFigures(4, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(par), withoutSlow(string(want)); got != want {
		t.Errorf("Parallel=4: figure tables differ from %s\n%s", figuresGolden, firstDiff(got, want))
	}
}

// TestResultJSONRoundTrip: every pinned figure, encoded as result.json and
// decoded into a Figure, prints its table unchanged. So does an FCT figure
// whose DynaQ cell is 0 and whose other rows print "-" against it.
func TestResultJSONRoundTrip(t *testing.T) {
	skipSlowTests(t)
	figs, err := sequentialFigures()
	if err != nil {
		t.Fatal(err)
	}
	// An FCT figure whose DynaQ avg large is 0, as a cache-workload run's is
	// (no flow above 10MB).
	zero := &figures.Figure{
		Name:    "zero-base",
		Labels:  []string{"load", "scheme"},
		Columns: []figures.Column{{Name: "avg overall", Unit: figures.FCT}, {Name: "avg small", Unit: figures.FCT}, {Name: "avg large", Unit: figures.FCT}},
		Rows: []figures.Row{
			{Labels: []string{"50%", "DynaQ"}, Values: []float64{2e9, 1e9, 0}},
			{Labels: []string{"50%", "BestEffort"}, Values: []float64{3e9, 2e9, 5e9}},
		},
	}
	if got := strings.Fields(strings.Split(zero.Table(), "\n")[3])[4]; got != "-" {
		t.Fatalf("BestEffort avg large against DynaQ's 0 prints %q, want -\n%s", got, zero.Table())
	}
	for _, f := range append(figs, quickFigure{"zero-base", zero}) {
		data, err := json.Marshal(f.fig)
		if err != nil {
			t.Errorf("figure %s: %v", f.id, err)
			continue
		}
		var back figures.Figure
		if err := json.Unmarshal(data, &back); err != nil {
			t.Errorf("figure %s: %v", f.id, err)
			continue
		}
		if got, want := back.Table(), f.fig.Table(); got != want {
			t.Errorf("figure %s: result.json re-renders as\n%s--- want ---\n%s", f.id, got, want)
		}
	}
}

// firstDiff names the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
