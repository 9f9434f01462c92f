package figures

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
)

// TestCellsReplayFromTheirDocuments runs every figure at quick scale and
// writes its artifacts. Each simulating figure's cell files are exactly the
// bytes its grid loaded, each loads through scenario.LoadWith, and each
// file's scenario hash is the one the figure's manifest records for it.
// Then the figure runs again from storage alone: each cell the grid asks for
// is answered with the outcome file stored beside its document, which must
// decode and re-encode to the same bytes, and the rebuilt figure must print
// the same table and carry the same rows.
func TestCellsReplayFromTheirDocuments(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every figure in the list")
	}
	var (
		mu     sync.Mutex
		loaded [][]byte
	)
	run := runCell
	defer func() { runCell = run }()
	record := func(data []byte) ([]byte, error) {
		mu.Lock()
		loaded = append(loaded, data)
		mu.Unlock()
		return run(data)
	}
	opts := experiment.Options{Scale: experiment.Quick, Seed: 1, Parallel: 2}
	simulating := 0
	for i, e := range Figures() {
		loaded = nil
		runCell = record
		fig, err := e.Run(opts)
		if err != nil {
			t.Fatalf("figure %s: %v", e.ID, err)
		}
		dir := t.TempDir()
		if err := fig.WriteArtifacts(dir, telemetry.Manifest{Tool: "test"}, "quick"); err != nil {
			t.Fatal(err)
		}
		var man struct{ Summary map[string]string }
		data, err := os.ReadFile(filepath.Join(dir, telemetry.ManifestFile))
		if err == nil {
			err = json.Unmarshal(data, &man)
		}
		if err != nil {
			t.Fatalf("figure %s: %v", e.ID, err)
		}
		var emitted [][]byte
		stored := map[string][]byte{}
		for c := 0; ; c++ {
			name := fmt.Sprintf("cell-%02d.json", c)
			doc, err := os.ReadFile(filepath.Join(dir, name))
			if os.IsNotExist(err) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if stored[string(doc)], err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("cell-%02d.outcome.json", c))); err != nil {
				t.Fatalf("figure %s: %v", e.ID, err)
			}
			if _, err := scenario.LoadWith(doc, scenario.Overrides{}); err != nil {
				t.Errorf("figure %s: %s does not load: %v", e.ID, name, err)
			}
			if got, want := telemetry.Hash(doc), man.Summary[name]; got != want {
				t.Errorf("figure %s: %s hashes to %s, the manifest records %q", e.ID, name, got, want)
			}
			emitted = append(emitted, doc)
		}
		if e.ID == "4" {
			// Figure 4 is Figure 3's runs, viewed again: it loads nothing.
			loaded = slices.Clone(emitted)
		}
		if len(man.Summary) != len(emitted)+1 {
			t.Errorf("figure %s: the manifest summary has %d entries for %d cells and the scale", e.ID, len(man.Summary), len(emitted))
		}
		compare := func(a, b []byte) int { return slices.Compare(a, b) }
		slices.SortFunc(loaded, compare)
		slices.SortFunc(emitted, compare)
		if !slices.EqualFunc(loaded, emitted, slices.Equal) {
			t.Errorf("figure %s: the grid loaded %d documents and emitted %d, not the same bytes", e.ID, len(loaded), len(emitted))
		}
		if len(emitted) > 0 {
			simulating++
		}

		runCell = func(data []byte) ([]byte, error) {
			outcome, ok := stored[string(data)]
			if !ok {
				return nil, fmt.Errorf("no stored outcome for the cell\n%s", data)
			}
			res, err := scenario.DecodeOutcome(outcome)
			if err != nil {
				return nil, err
			}
			if again, err := scenario.EncodeOutcome(res); err != nil || !bytes.Equal(again, outcome) {
				return nil, fmt.Errorf("the stored outcome does not re-encode to its bytes (%v)", err)
			}
			return outcome, nil
		}
		replayed, err := Figures()[i].Run(opts)
		if err != nil {
			t.Errorf("figure %s from storage: %v", e.ID, err)
			continue
		}
		if got, want := replayed.Table(), fig.Table(); got != want {
			t.Errorf("figure %s from storage prints\n%s\nnot\n%s", e.ID, got, want)
		}
		if !reflect.DeepEqual(replayed.Rows, fig.Rows) {
			t.Errorf("figure %s from storage: the rows' series or traces differ", e.ID)
		}
	}
	if simulating != 23 {
		t.Errorf("%d figures emitted cells, want the 23 simulating ones", simulating)
	}
}
