package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dynaq/internal/faults"
)

// outcomeCells are small cells whose results fill every part of an outcome:
// a static rack with a queue trace, finite flows' FCTs, a fault timeline and
// a guardrail; a faulted leaf-spine fct cell whose DynaQ-Tofino ports record
// guardrail violations; and an fct cell on the flow engine, which fills the
// fluid counters.
func outcomeCells() map[string]Document {
	static := Document{
		Kind: "static", Scheme: "DynaQ", Sched: "drr",
		RateGbps: 1, BufferB: 85000, Queues: 4, RTTUs: 500,
		DurationS: 0.4, SampleMs: 100, Seed: 1, Guard: true, TraceStride: 64,
		Specs: []Spec{
			{Class: 1, Flows: 2},
			{Class: 2, Flows: 8, Ctrl: "cubic"},
			{Class: 3, Flows: 5, SizeB: 20000, SpacingS: 0.02},
		},
		Faults: []faults.Spec{
			{Kind: faults.KindLoss, Target: "tor:2", AtS: 0, Rate: 0.001},
			{Kind: faults.KindFlap, Target: "host0:nic", AtS: 0.1, UntilS: 0.3, PeriodS: 0.05, JitterS: 0.005},
		},
	}
	faulted := Document{
		Kind: "fct", Scheme: "DynaQ-Tofino", Sched: "spq+drr",
		Topo: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		RateGbps: 10, BufferB: 192000, Queues: 4, RTTUs: 80,
		Load: 0.5, Flows: 40, Workloads: []string{"websearch"}, MinRTOMs: 5, Seed: 1,
		Guard: true, FailureAware: true, DetectMs: 0.5,
		Faults: []faults.Spec{
			{Kind: faults.KindFlap, Target: "spine0", AtS: 0.002, UntilS: 0.05, PeriodS: 0.01, JitterS: 0.001},
			{Kind: faults.KindLoss, Target: "leaf0:spine1", AtS: 0, Rate: 0.005},
		},
	}
	fluid := faulted
	fluid.Scheme, fluid.Engine, fluid.Guard, fluid.FailureAware, fluid.DetectMs, fluid.Faults = "DynaQ", "flow", false, false, 0, nil
	return map[string]Document{"static": static, "fct-faulted": faulted, "fct-flow": fluid}
}

// runOutcome runs doc and returns its result and outcome bytes.
func runOutcome(t testing.TB, doc Document) (*Result, []byte) {
	t.Helper()
	r, err := Load(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeOutcome(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

// TestOutcomeRoundTrip holds DecodeOutcome to EncodeOutcome's inverse: the
// decoded result is the run's result exactly, and it encodes to the same
// bytes.
func TestOutcomeRoundTrip(t *testing.T) {
	for name, doc := range outcomeCells() {
		res, data := runOutcome(t, doc)
		got, err := DecodeOutcome(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("%s: the decoded outcome differs from the run's result", name)
		}
		if again, err := EncodeOutcome(got); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: the decoded outcome re-encodes to other bytes (%v)", name, err)
		}
		switch {
		case name == "static" && (got.Static.FCT.Len() == 0 || len(got.Static.QueueTrace) == 0 || len(got.Static.FaultTimeline) == 0):
			t.Errorf("%s: the cell filled no FCTs, queue trace or fault timeline", name)
		case name == "fct-faulted" && len(got.Dynamic.Violations) == 0:
			t.Errorf("%s: the cell recorded no guardrail violation", name)
		case name == "fct-flow" && got.Dynamic.Fluid == nil:
			t.Errorf("%s: the cell filled no fluid counters", name)
		}
	}
}

// TestDecodeOutcomeRefuses feeds DecodeOutcome bytes that are not an
// outcome: each is an error, not a result or a panic.
func TestDecodeOutcomeRefuses(t *testing.T) {
	_, static := runOutcome(t, outcomeCells()["static"])
	for name, data := range map[string]string{
		"empty":          "",
		"malformed":      "{",
		"truncated":      string(static[:len(static)/2]),
		"null":           "null",
		"no kind":        "{}",
		"array":          "[]",
		"both kinds":     `{"Static":{"FCT":[]},"Dynamic":{"FCT":[]}}`,
		"no collector":   `{"Dynamic":{"Generated":1}}`,
		"null collector": `{"Static":{"FCT":null}}`,
		"trailing data":  string(static) + "{}",
		"a document":     `{"kind":"static","scheme":"DynaQ"}`,
		"a figure":       `{"Name":"fig8","Labels":["load","scheme"]}`,
		"wrong type":     `{"Dynamic":{"FCT":[],"Generated":"many"}}`,
	} {
		if res, err := DecodeOutcome([]byte(data)); err == nil || !strings.HasPrefix(err.Error(), "scenario: outcome: ") {
			t.Errorf("%s: decoded to %+v, %v", name, res, err)
		}
	}
}

// FuzzDecodeOutcome decodes arbitrary bytes: DecodeOutcome never panics,
// and whatever it accepts has a headline and survives its own round trip.
func FuzzDecodeOutcome(f *testing.F) {
	// Smaller cells than the round trip's: the fuzzing engine minimizes
	// every input it finds interesting, which a long seed stalls.
	cells := outcomeCells()
	static, fct := cells["static"], cells["fct-faulted"]
	static.DurationS, static.TraceStride, fct.Flows = 0.1, 0, 8
	for _, doc := range []Document{static, fct} {
		_, data := runOutcome(f, doc)
		f.Add(data)
		f.Add(data[:len(data)-2])
		f.Add(bytes.Replace(data, []byte(`"FCT":[`), []byte(`"FCT":null,"X":[`), 1))
	}
	f.Add([]byte(`{"Static":{"FCT":[{"Size":1,"FCT":2}],"Samples":[{"At":1,"PerQueue":[3],"Aggregate":3}],"QueueTrace":[{"At":1,"PerQueue":[1]}]}}`))
	f.Add([]byte(`{"Dynamic":{"FCT":[],"Fluid":{},"Violations":[{"Msg":"x"}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeOutcome(data)
		if err != nil {
			return
		}
		res.Summary()
		again, err := EncodeOutcome(res)
		if err != nil {
			t.Fatalf("an accepted outcome does not encode: %v", err)
		}
		back, err := DecodeOutcome(again)
		if err != nil || !reflect.DeepEqual(back, res) {
			t.Fatalf("an accepted outcome does not survive its round trip (%v)", err)
		}
	})
}
