package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
)

// flagSets are the flag invocations the README and CI document, shortened
// where a run would be long, plus one per field the flags set away from the
// loader's defaults.
var flagSets = [][]string{
	{},
	{"-scheme", "DynaQ", "-spec", "1:2,2:16", "-trace", "20"},
	{"-scheme", "PQL", "-weights", "4,3,2,1", "-spec", "0:16,1:8,2:4,3:2"},
	{"-rate", "10", "-buffer", "192000", "-queues", "8", "-sched", "wrr", "-duration", "1"},
	{"-scheme", "BestEffort", "-rate", "10", "-buffer", "192000", "-queues", "8", "-spec", "0:2,1:4,2:8", "-duration", "1"},
	{"-sched", "spq+drr", "-spec", "0:2,1:16", "-duration", "1"},
	{"-mtu", "9000", "-sample", "0.01", "-duration", "2"},
	{"-rtt", "200", "-seed", "7", "-duration", "2"},
	{"-scheme", "DynaQ", "-spec", "1:2,2:16", "-faults", "testdata/faults.json", "-guard", "-duration", "2"},
	{"-scheme", "DynaQ", "-duration", "2", "-trace", "50"},
}

// directDocument builds the static document the flags stand for straight
// from the flag values, the way flag mode configured a run before the flags
// became a document: the oracle document() is held to.
func directDocument(t *testing.T, s *scenarioFlags) scenario.Document {
	t.Helper()
	ws := make([]int64, s.queues)
	for i := range ws {
		ws[i] = 1
	}
	if s.weights != "" {
		parts := strings.Split(s.weights, ",")
		if len(parts) != s.queues {
			t.Fatalf("-weights needs %d entries", s.queues)
		}
		for i, p := range parts {
			w, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil || w <= 0 {
				t.Fatalf("bad weight %q", p)
			}
			ws[i] = w
		}
	}

	var specs []scenario.Spec
	for _, part := range strings.Split(s.spec, ",") {
		cf := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(cf) != 2 {
			t.Fatalf("bad -spec entry %q (want class:flows)", part)
		}
		class, err1 := strconv.Atoi(cf[0])
		flows, err2 := strconv.Atoi(cf[1])
		if err1 != nil || err2 != nil || class < 0 || class >= s.queues || flows <= 0 {
			t.Fatalf("bad -spec entry %q", part)
		}
		specs = append(specs, scenario.Spec{Class: class, Flows: flows})
	}

	doc := scenario.Document{
		Kind:      "static",
		Scheme:    s.scheme,
		Sched:     s.sched,
		Weights:   ws,
		RateGbps:  s.rate,
		RTTUs:     s.rtt,
		BufferB:   s.buffer,
		Queues:    s.queues,
		MTU:       s.mtu,
		Seed:      s.seed,
		Specs:     specs,
		DurationS: s.duration,
		SampleMs:  s.sample * 1e3,
		Guard:     s.guard,
	}
	if s.faults != "" {
		data, err := os.ReadFile(s.faults)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc.Faults); err != nil {
			t.Fatalf("-faults %s: %v", s.faults, err)
		}
		if err := faults.Validate(doc.Faults); err != nil {
			t.Fatalf("-faults %s: %v", s.faults, err)
		}
	}
	return doc
}

// runStatic loads the static document data with the last traceN bottleneck
// events kept, runs it, and returns the result, the trace (nil without one)
// and the document as loaded.
func runStatic(t *testing.T, data []byte, traceN int) (*experiment.StaticResult, *metrics.EventRecorder, scenario.Document) {
	t.Helper()
	r, err := scenario.Load(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if traceN > 0 {
		if err := r.SetTraceEvents(traceN); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Static, r.Trace(), r.Document()
}

// TestFlagDocumentRunsTheFlagScenario holds the document the flags encode
// to the one directDocument builds from them: a field the encoding drops or
// mistranslates (mtu, sample_ms, weights, faults, ...) changes a result.
func TestFlagDocumentRunsTheFlagScenario(t *testing.T) {
	for _, args := range flagSets {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("", flag.ContinueOnError)
			var sf scenarioFlags
			sf.register(fs)
			traceN := fs.Int("trace", 0, "")
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			direct, err := json.Marshal(directDocument(t, &sf))
			if err != nil {
				t.Fatal(err)
			}
			want, wantTrace, _ := runStatic(t, direct, *traceN)
			if sf.faults != "" && len(want.FaultTimeline) == 0 {
				t.Fatal("the fault schedule applied no transition")
			}

			data, err := sf.document()
			if err != nil {
				t.Fatal(err)
			}
			got, gotTrace, doc := runStatic(t, data, *traceN)
			if doc.Guard != sf.guard {
				t.Errorf("document guard %v, -guard %v", doc.Guard, sf.guard)
			}
			if !reflect.DeepEqual(got.Samples, want.Samples) {
				t.Errorf("samples differ from the direct document's\n%s", data)
			}
			if got.Drops != want.Drops {
				t.Errorf("drops %d, direct document %d", got.Drops, want.Drops)
			}
			if (gotTrace == nil) != (wantTrace == nil) {
				t.Fatalf("trace recorded %v, direct document %v", gotTrace != nil, wantTrace != nil)
			}
			if wantTrace != nil && !reflect.DeepEqual(gotTrace.Events(), wantTrace.Events()) {
				t.Errorf("trace events differ from the direct document's")
			}
			if !reflect.DeepEqual(got.FaultOutcome, want.FaultOutcome) {
				t.Errorf("fault outcome %+v, direct document %+v", got.FaultOutcome, want.FaultOutcome)
			}
		})
	}
}

// TestScenarioJSONRerunsAFlagRun runs flags with -telemetry, then -config on
// the scenario.json the run wrote: the rerun prints the same report, writes
// the same artifacts and records the same scenario_hash.
func TestScenarioJSONRerunsAFlagRun(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	var outA, outB bytes.Buffer
	if err := run([]string{"-scheme", "DynaQ", "-duration", "1", "-trace", "50", "-telemetry", a}, &outA); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", filepath.Join(a, telemetry.ScenarioFile), "-trace", "50", "-telemetry", b}, &outB); err != nil {
		t.Fatal(err)
	}
	if outA.String() != outB.String() {
		t.Errorf("reports differ:\n%s\n--- rerun ---\n%s", outA.String(), outB.String())
	}
	for _, name := range []string{telemetry.EventsFile, telemetry.MetricsFile, telemetry.PortEventsFile, telemetry.ScenarioFile} {
		if x, y := readFile(t, a, name), readFile(t, b, name); !bytes.Equal(x, y) {
			t.Errorf("%s differs between the flag run and its rerun", name)
		}
	}
	hash := func(dir string) string {
		var m struct {
			ScenarioHash string `json:"scenario_hash"`
		}
		if err := json.Unmarshal(readFile(t, dir, telemetry.ManifestFile), &m); err != nil {
			t.Fatal(err)
		}
		return m.ScenarioHash
	}
	want := telemetry.Hash(readFile(t, a, telemetry.ScenarioFile))
	if ha, hb := hash(a), hash(b); ha != want || hb != want {
		t.Errorf("scenario_hash %s and %s, want the hash of scenario.json %s", ha, hb, want)
	}
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRefusesFlagsARunWouldIgnore: a flag the run cannot honour is an error
// naming it, never silently dropped.
func TestRefusesFlagsARunWouldIgnore(t *testing.T) {
	static := filepath.Join("..", "..", "scenarios", "fig3_dynaq.json")
	fct := filepath.Join("..", "..", "scenarios", "fct_websearch.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", static, "-scheme", "PQL"}, "-scheme"},
		{[]string{"-config", static, "-seeds", "4", "-seed", "3"}, "-seed"},
		{[]string{"-config", static, "-guard"}, "-guard"},
		{[]string{"-config", static, "-faults", "testdata/faults.json"}, "-faults"},
		{[]string{"-config", static, "-duration", "1"}, "-duration"},
		{[]string{"-seeds", "2", "-trace", "5"}, "-trace"},
		{[]string{"-seeds", "2", "-telemetry", t.TempDir()}, "-telemetry"},
		{[]string{"-config", fct, "-trace", "5"}, "static"},
		{[]string{"-config", fct, "-seeds", "2"}, "static"},
		{[]string{"-engine", "flow"}, "engine"},
	} {
		err := run(tc.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}
