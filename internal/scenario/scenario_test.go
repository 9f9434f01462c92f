package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/units"
)

const staticDoc = `{
  "kind": "static",
  "scheme": "DynaQ",
  "sched": "drr",
  "rate_gbps": 1,
  "buffer_bytes": 85000,
  "queues": 4,
  "rtt_us": 500,
  "duration_s": 2,
  "sample_ms": 500,
  "seed": 1,
  "specs": [
    {"class": 1, "flows": 2},
    {"class": 2, "flows": 8, "ctrl": "cubic"}
  ]
}`

const fctDoc = `{
  "kind": "fct",
  "scheme": "DynaQ",
  "topo": "star",
  "servers": 4,
  "rate_gbps": 1,
  "buffer_bytes": 85000,
  "queues": 5,
  "rtt_us": 500,
  "load": 0.5,
  "flows": 60,
  "workloads": ["websearch"],
  "min_rto_ms": 10,
  "seed": 1
}`

func TestLoadValidation(t *testing.T) {
	bad := []string{
		`{`,
		`{"kind": "blimp"}`,
		`{"kind": "static", "queues": 2, "weights": [1], "rate_gbps": 1, "buffer_bytes": 1000, "rtt_us": 100}`,
		`{"kind": "static", "unknown_field": 1}`,
		`{"kind": "static", "queues": 2, "rate_gbps": 1, "buffer_bytes": 1000, "rtt_us": 100,
		  "duration_s": 1, "specs": [{"class": 0, "flows": 1, "ctrl": "warp"}]}`,
		`{"kind": "fct", "queues": 2, "rate_gbps": 1, "buffer_bytes": 1000, "rtt_us": 100,
		  "workloads": ["nope"]}`,
	}
	for i, doc := range bad {
		if _, err := Load([]byte(doc)); err == nil {
			t.Errorf("document %d should fail", i)
		}
	}
	// A frame no larger than the 40-byte TCP/IP header carries no payload.
	// Such documents used to load, then panic on the flows' MSS (20), run
	// default-sized segments under 40-byte DRR quanta (40), or fail only
	// when the ports were built (-1).
	for _, mtu := range []string{"20", "40", "-1"} {
		for _, doc := range []string{staticDoc, fctDoc} {
			doc = strings.Replace(doc, `"seed": 1`, `"mtu": `+mtu+`, "seed": 1`, 1)
			_, err := Load([]byte(doc))
			var verr *ValidationError
			if !errors.As(err, &verr) || verr.Field != "mtu" {
				t.Errorf("mtu %s: got %v, want a ValidationError on mtu\n%s", mtu, err, doc)
			}
		}
	}
	// A packet's payload is 32 bits, and a frame is at most an IPv4
	// datagram: the largest one loads, one byte more is refused naming it.
	for _, doc := range []string{staticDoc, fctDoc} {
		if _, err := Load([]byte(strings.Replace(doc, `"seed": 1`, `"mtu": 65535, "seed": 1`, 1))); err != nil {
			t.Errorf("mtu 65535: %v", err)
		}
		_, err := Load([]byte(strings.Replace(doc, `"seed": 1`, `"mtu": 65536, "seed": 1`, 1)))
		var verr *ValidationError
		if !errors.As(err, &verr) || verr.Field != "mtu" ||
			!strings.Contains(err.Error(), "must be at most 65535 bytes, the largest IPv4 datagram, got 65536") {
			t.Errorf("mtu 65536: got %v, want a ValidationError on mtu giving the bound", err)
		}
	}
}

func TestStaticScenarioRuns(t *testing.T) {
	r, err := Load([]byte(staticDoc))
	if err != nil {
		t.Fatal(err)
	}
	if r.Document().Kind != "static" {
		t.Fatalf("kind = %q", r.Document().Kind)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Static == nil || res.Dynamic != nil {
		t.Fatal("wrong result shape")
	}
	agg := res.Static.AvgAggregate(units.Time(units.Second), units.Time(2*units.Second))
	if agg < 900*units.Mbps {
		t.Fatalf("aggregate = %v", agg)
	}
	// Both queues share under DynaQ despite the flow asymmetry.
	share := res.Static.ShareOf(1, units.Time(units.Second), units.Time(2*units.Second))
	if share < 0.35 || share > 0.65 {
		t.Fatalf("queue-1 share = %.3f", share)
	}
}

func TestFCTScenarioRuns(t *testing.T) {
	r, err := Load([]byte(fctDoc))
	if err != nil {
		t.Fatal(err)
	}
	if r.Document().Kind != "fct" {
		t.Fatalf("kind = %q", r.Document().Kind)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dynamic == nil {
		t.Fatal("wrong result shape")
	}
	if res.Dynamic.Completed < 54 { // ≥90% of 60 within the drain budget
		t.Fatalf("completed = %d/60", res.Dynamic.Completed)
	}
	if res.Dynamic.FCT.Avg(metrics.AllFlows) <= 0 {
		t.Fatal("no FCT stats")
	}
}

// TestDTRunsGuarded: the shared-memory row runs from a document, static and
// on the packet engine, with the guardrail auditing every switch port's
// occupancy and pool reservations.
func TestDTRunsGuarded(t *testing.T) {
	static := strings.Replace(staticDoc, `"scheme": "DynaQ"`, `"scheme": "DT", "guard": true`, 1)
	static = strings.Replace(static, `"duration_s": 2`, `"duration_s": 0.5`, 1)
	fct := strings.Replace(fctDoc, `"scheme": "DynaQ"`, `"scheme": "DT", "guard": true`, 1)
	for _, doc := range []string{static, fct} {
		r, err := Load([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out experiment.FaultOutcome
		if res.Static != nil {
			out = res.Static.FaultOutcome
			if res.Static.Drops == 0 {
				t.Fatal("ten flows into one DT port never dropped")
			}
		} else {
			out = res.Dynamic.FaultOutcome
		}
		if out.ViolationTotal != 0 {
			t.Fatalf("%s run: %d guardrail violations, first %+v", r.Document().Kind, out.ViolationTotal, out.Violations[0])
		}
	}
}

// TestSimSpansReplay runs each kind of scenario twice with a span tracer and
// demands identical sim-domain spans: they are stored beside a job's
// artifacts but no artifact hash or run-twice diff covers them, so a host
// clock value reaching a span bound would otherwise go unnoticed.
func TestSimSpansReplay(t *testing.T) {
	for _, doc := range []string{staticDoc, fctDoc} {
		spans := func() []trace.Span {
			r, err := Load([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New("t-1", "test", nil) // sim spans never consult the clock
			r.SetSpans(tr, "")
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			return tr.Snapshot()
		}
		first, second := spans(), spans()
		if len(first) == 0 {
			t.Fatal("run recorded no sim span")
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("sim spans differ between identical runs:\n%+v\n%+v", first, second)
		}
	}
}

// TestControllerNames: a spec's ctrl resolves through transport's
// controller table, and an unknown name is refused at its key with the
// table's names.
func TestControllerNames(t *testing.T) {
	withCtrl := func(name string) []byte {
		return []byte(staticWith(`"seed": 1`, `[{"class": 0, "flows": 1, "ctrl": "`+name+`"}]`))
	}
	for _, name := range []string{"", "reno", "cubic", "dctcp", "ecn-reno", "timely"} {
		if _, err := Load(withCtrl(name)); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	_, err := Load(withCtrl("quic"))
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Field != "specs[0].ctrl" ||
		!strings.Contains(err.Error(), `unknown controller "quic" (known: reno, cubic, dctcp, ecn-reno, timely)`) {
		t.Errorf("unknown controller: got %v", err)
	}
}
