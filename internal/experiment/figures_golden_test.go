package experiment

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateFigures = flag.Bool("update-figures", false, "rewrite testdata/figures_quick.golden from the code under test")

const figuresGolden = "testdata/figures_quick.golden"

type tabler interface{ Table() string }

func tableOf[T tabler](f func(Options) (T, error)) func(Options) (string, error) {
	return func(o Options) (string, error) {
		r, err := f(o)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	}
}

// goldenFigures are the figures whose quick run takes under ~1.5 s. Their
// tables at seed 1 are pinned in testdata/figures_quick.golden: the shape
// tests around them accept a range, a committed table accepts one value.
var goldenFigures = []struct {
	id  string
	run func(Options) (string, error)
}{
	{"1", tableOf(Fig1)},
	{"3", tableOf(Fig3)},
	{"5", tableOf(Fig5)},
	{"6", tableOf(Fig6)},
	{"7", tableOf(Fig7)},
	{"8", tableOf(Fig8)},
	{"9", tableOf(Fig9)},
	{"ablation-victim", tableOf(AblationVictim)},
	{"ablation-wbdp", tableOf(AblationSatisfaction)},
	{"ablation-tcndrop", tableOf(AblationDequeueDrop)},
	{"ext-microburst", tableOf(ExtMicroburst)},
	{"ext-sharedmem", tableOf(ExtSharedMemory)},
	{"ext-protocol", tableOf(ExtProtocolDependence)},
	{"ext-tofino", tableOf(ExtTofino)},
	{"ext-zoo", tableOf(ExtTransportZoo)},
	{"ext-closedloop", tableOf(ExtClosedLoop)},
	{"ext-dynaq-ecn", tableOf(ExtDynaQECNMode)},
}

func renderGoldenFigures(t *testing.T, parallel int) string {
	t.Helper()
	var b strings.Builder
	for _, f := range goldenFigures {
		table, err := f.run(Options{Scale: Quick, Seed: 1, Parallel: parallel})
		if err != nil {
			t.Fatalf("figure %s: %v", f.id, err)
		}
		fmt.Fprintf(&b, "=== %s ===\n%s", f.id, table)
	}
	return b.String()
}

// TestFiguresQuickGolden compares every quick figure table with the
// committed one, sequentially and on four workers. The file was produced at
// the commit before the static figures moved onto staticGrid and must not
// change in a refactor; -update-figures rewrites it.
func TestFiguresQuickGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Under the detector's ~10x cost the package would not fit go test's
		// 10m default; the per-figure tests already run these grids on
		// GOMAXPROCS workers under -race.
		t.Skip("runs 17 figures twice")
	}
	if *updateFigures {
		if err := os.WriteFile(figuresGolden, []byte(renderGoldenFigures(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-figures to create it)", err)
	}
	for _, parallel := range []int{1, 4} {
		if got := renderGoldenFigures(t, parallel); got != string(want) {
			t.Errorf("Parallel=%d: figure tables differ from %s\n%s", parallel, figuresGolden, firstDiff(got, string(want)))
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
