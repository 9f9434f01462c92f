package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dynaq/internal/figures"
	"dynaq/internal/telemetry"
)

// goldenBlock returns figure id's table from the experiment package's
// pinned quick-scale tables.
func goldenBlock(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiment", "testdata", "figures_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(data), "=== "+id+" ===\n")
	if !ok {
		t.Fatalf("no figure %s in the golden file", id)
	}
	if end := strings.Index(block, "\n=== "); end >= 0 {
		block = block[:end+1]
	}
	return block
}

var wallTime = regexp.MustCompile(`\A\(\d+\.\ds\)\n\n\z`)

// TestFig3TableAndResult runs Figure 3 as CI does: stdout is the pinned
// table between its header and wall-time lines, result.json carries every
// scheme's throughput series and queue trace, and each scheme's cell
// document sits beside it, hashed in the manifest.
func TestFig3TableAndResult(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-fig", "3", "-scale", "quick", "-seed", "1", "-parallel", "1", "-telemetry", dir}, &out); err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(header, "=== Figure 3: ") {
		t.Fatalf("header %q", header)
	}
	cut := strings.LastIndex(body, "(")
	if cut < 0 || !wallTime.MatchString(body[cut:]) {
		t.Fatalf("stdout does not end in a wall-time line:\n%s", out.String())
	}
	if got, want := body[:cut], goldenBlock(t, "3"); got != want {
		t.Errorf("table differs from the golden one:\n%s--- want ---\n%s", got, want)
	}

	data, err := os.ReadFile(filepath.Join(dir, "3", "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res figures.Figure
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("result.json has no rows")
	}
	for _, row := range res.Rows {
		if len(row.Series) == 0 || len(row.Trace) == 0 {
			t.Errorf("%s: %d throughput samples, %d queue samples", row.Labels, len(row.Series), len(row.Trace))
		}
	}
	if got, want := res.Table(), goldenBlock(t, "3"); got != want {
		t.Errorf("result.json re-renders as\n%s--- want ---\n%s", got, want)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "3", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	// One cell per scheme, each hashed in the manifest.
	for i := range res.Rows {
		name := fmt.Sprintf("cell-%02d.json", i)
		doc, err := os.ReadFile(filepath.Join(dir, "3", name))
		if err != nil {
			t.Fatal(err)
		}
		if entry := fmt.Sprintf("%q: %q", name, telemetry.Hash(doc)); !bytes.Contains(manifest, []byte(entry)) {
			t.Errorf("manifest.json has no entry %s:\n%s", entry, manifest)
		}
	}
}

// TestRemovedFlagsAreErrors: result.json is the one machine-readable output,
// so the flags that printed it another way are unknown.
func TestRemovedFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{{"-json"}, {"-csv", "x"}, {"-progress"}} {
		var out bytes.Buffer
		err := run(append(args, "-fig", "cycles"), &out)
		if !errors.Is(err, errFlags) || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want a flag error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
