package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// shrunkScenario writes the shipped scenario name with the given keys
// replaced into a temporary file and returns its path.
func shrunkScenario(t *testing.T, name string, keys map[string]any) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for k, v := range keys {
		doc[k] = v
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFCTReport runs fct documents through the command and reads its report:
// the flow counts, the fluid engine's work on the flow engine, the FCT
// headline, and the fault activity and guardrail verdict of a faulted,
// guarded run, clean and not.
func TestFCTReport(t *testing.T) {
	ms := `\d+\.\d\dms`
	for _, tc := range []struct {
		name  string
		keys  map[string]any
		lines []string
	}{
		{"faults_leafspine.json", map[string]any{"flows": 40}, []string{
			`^fct scenario \(DynaQ, load 50%, engine packet\): 40/40 flows$`,
			`^avg FCT overall ` + ms + `  small ` + ms + `  large ` + ms + `  p99 small ` + ms + `$`,
			`^faults: [1-9]\d* transitions, [1-9]\d* lost, 0 corrupted on links$`,
			`^guardrail: no invariant violations$`,
		}},
		// DynaQ-Tofino's stale queue lengths break Algorithm 1's transition
		// rule by design: the verdict lists what the guardrail caught.
		{"faults_leafspine.json", map[string]any{"flows": 40, "scheme": "DynaQ-Tofino"}, []string{
			`^fct scenario \(DynaQ-Tofino, load 50%, engine packet\): 40/40 flows$`,
			`^avg FCT overall ` + ms + `  small ` + ms + `  large ` + ms + `  p99 small ` + ms + `$`,
			`^faults: [1-9]\d* transitions, [1-9]\d* lost, 0 corrupted on links$`,
			`^guardrail: 2 violations \(showing 2\):$`,
			`^  \d+ps leaf0:\d \(DynaQ-Tofino\) \[transition\]: enqueue on queue \d`,
			`^  \d+ps leaf0:\d \(DynaQ-Tofino\) \[transition\]: enqueue on queue \d`,
		}},
		{"fattree_flows.json", map[string]any{"flows": 60, "k": 4}, []string{
			`^fct scenario \(DynaQ, load 60%, engine flow\): 60/60 flows$`,
			`^engine events [1-9]\d*  rate recomputes [1-9]\d*  demotions 0  promotions 0$`,
			`^avg FCT overall ` + ms + `  small ` + ms + `  large ` + ms + `  p99 small ` + ms + `$`,
		}},
	} {
		var out bytes.Buffer
		if err := run([]string{"-config", shrunkScenario(t, tc.name, tc.keys)}, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got [][]byte
		for _, l := range bytes.Split(out.Bytes(), []byte("\n")) {
			if len(l) > 0 {
				got = append(got, l)
			}
		}
		if len(got) != len(tc.lines) {
			t.Fatalf("%s: %d report lines, want %d:\n%s", tc.name, len(got), len(tc.lines), out.Bytes())
		}
		for i, re := range tc.lines {
			if !regexp.MustCompile(re).Match(got[i]) {
				t.Errorf("%s: line %d %q does not match %s", tc.name, i+1, got[i], re)
			}
		}
	}
}
