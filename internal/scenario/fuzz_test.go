package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dynaq/internal/units"
)

// TestLoadRejectsBadNumbersAndFaults covers the numeric validation added on
// top of JSON decoding: a scenario that parses but describes an impossible
// network (or an inconsistent fault schedule) must fail at Load, not panic
// deep inside a run.
func TestLoadRejectsBadNumbersAndFaults(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{
			"zero rate",
			`{"kind": "static", "rate_gbps": 0, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100, "duration_s": 1}`,
			"rate_gbps",
		},
		{
			"negative rate",
			`{"kind": "fct", "rate_gbps": -1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100, "load": 0.5}`,
			"rate_gbps",
		},
		{
			"zero buffer",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 0, "queues": 2, "rtt_us": 100, "duration_s": 1}`,
			"buffer_bytes",
		},
		{
			"zero queues",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 0, "rtt_us": 100, "duration_s": 1}`,
			"queues",
		},
		{
			"more queues than a backlog word",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 65, "rtt_us": 100, "duration_s": 1}`,
			"queues",
		},
		{
			"negative rtt",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": -5, "duration_s": 1}`,
			"rtt_us",
		},
		{
			"fct zero load",
			`{"kind": "fct", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100, "load": 0}`,
			"load",
		},
		{
			"fct overload",
			`{"kind": "fct", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100, "load": 1.2}`,
			"load",
		},
		{
			"negative detection delay",
			`{"kind": "fct", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100,
			  "load": 0.5, "detection_delay_ms": -1}`,
			"detection_delay_ms",
		},
		{
			"fault without target",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100,
			  "duration_s": 1, "faults": [{"kind": "down", "at_s": 0.1}]}`,
			"target",
		},
		{
			"fault bad kind",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100,
			  "duration_s": 1, "faults": [{"kind": "meteor", "target": "tor:0", "at_s": 0.1}]}`,
			"meteor",
		},
		{
			"fault loss rate out of range",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100,
			  "duration_s": 1, "faults": [{"kind": "loss", "target": "tor:0", "at_s": 0, "rate": 1.5}]}`,
			"rate",
		},
		{
			"flap period missing",
			`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100,
			  "duration_s": 1, "faults": [{"kind": "flap", "target": "tor:0", "at_s": 0, "until_s": 1}]}`,
			"period",
		},
		// Fault times past 64-bit picoseconds used to panic the schedule,
		// and a flap's toggles were planned without bound.
		{"fault at_s past 64-bit picoseconds", staticWith(`"faults": [{"kind": "down", "target": "tor:0", "at_s": 1e7}]`, okSpecs),
			"faults: spec 0: faults: down \"tor:0\": at_s 1e+07"},
		{"fault until_s past 64-bit picoseconds", staticWith(`"faults": [{"kind": "loss", "target": "tor:0", "at_s": 0, "until_s": 1e300, "rate": 0.1}]`, okSpecs),
			"picosecond horizon"},
		{"sub-nanosecond flap period", staticWith(`"faults": [{"kind": "flap", "target": "tor:0", "at_s": 0, "until_s": 2e-5, "period_s": 1e-10}]`, okSpecs),
			"faults: spec 0: faults: flap \"tor:0\": period_s 1e-10 toggles more than 100000 times"},
		// Static documents that used to pass Load and fail — or panic, or run
		// as misclassified traffic — on a worker.
		{"static negative sample", staticWith(`"sample_ms": -5`, okSpecs), "sample_ms"},
		{"static no specs", staticWith(`"sample_ms": 10`, `[]`), "specs"},
		{"static zero duration", strings.Replace(staticWith(`"seed": 1`, okSpecs), `"duration_s": 1`, `"duration_s": 0`, 1), "duration_s"},
		{"static negative duration", strings.Replace(staticWith(`"seed": 1`, okSpecs), `"duration_s": 1`, `"duration_s": -2`, 1), "duration_s"},
		{"static spec without flows", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2}, {"class": 1}]`), "specs[1].flows"},
		{"static negative flows", staticWith(`"seed": 1`, `[{"class": 0, "flows": -3}]`), "specs[0].flows"},
		{"static class past the queues", staticWith(`"seed": 1`, `[{"class": 2, "flows": 2}]`), "specs[0].class"},
		{"static negative class", staticWith(`"seed": 1`, `[{"class": -1, "flows": 2}]`), "specs[0].class"},
		{"static zero weight", staticWith(`"weights": [1, 0]`, okSpecs), "weights"},
		{"static negative weight", staticWith(`"weights": [-4, 1]`, okSpecs), "weights"},
		{"static unbounded hosts", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "hosts": 100000000}]`), "specs[0].hosts"},
		{"static negative hosts", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "hosts": -1}]`), "specs[0].hosts"},
		{"static hosts unbounded in total", staticWith(`"seed": 1`,
			`[{"class": 0, "flows": 2, "hosts": 16000}, {"class": 1, "flows": 2, "hosts": 16000}]`), "specs[1].hosts"},
		{"static negative stop", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2}, {"class": 1, "flows": 4, "stop_at_s": -1}]`), "specs[1].stop_at_s"},
		{"static negative min rto", staticWith(`"min_rto_ms": -5`, okSpecs), "min_rto_ms"},
		{"fct negative min rto", fctOn(onStar, `"min_rto_ms": -5`), "min_rto_ms"},
		{"fct zero weight", `{"kind": "fct", "scheme": "DynaQ", "topo": "star", "rate_gbps": 1, "buffer_bytes": 85000,
			"queues": 2, "rtt_us": 100, "load": 0.5, "flows": 10, "workloads": ["websearch"], "weights": [1, 0]}`, "weights"},
		// Keys a run of the document's kind, or of its topology, never reads:
		// they used to load, run something else and be cached under the
		// document's hash.
		{"static topo", staticWith(`"topo": "leafspine"`, okSpecs), unread("topo")},
		{"static servers", staticWith(`"servers": 4`, okSpecs), unread("servers")},
		{"static leaves", staticWith(`"leaves": 4`, okSpecs), unread("leaves")},
		{"static spines", staticWith(`"spines": 2`, okSpecs), unread("spines")},
		{"static hosts_per_leaf", staticWith(`"hosts_per_leaf": 2`, okSpecs), unread("hosts_per_leaf")},
		{"static k", staticWith(`"k": 4`, okSpecs), unread("k")},
		{"static load", staticWith(`"load": 0.5`, okSpecs), unread("load")},
		{"static flows", staticWith(`"flows": 100`, okSpecs), unread("flows")},
		{"static workloads", staticWith(`"workloads": ["websearch"]`, okSpecs), unread("workloads")},
		{"static dctcp", staticWith(`"dctcp": true`, okSpecs), unread("dctcp")},
		{"static failure_aware", staticWith(`"failure_aware": true`, okSpecs), unread("failure_aware")},
		{"static detection_delay_ms", staticWith(`"detection_delay_ms": 0.5`, okSpecs), unread("detection_delay_ms")},
		{"fct duration_s", fctOn(onStar, `"duration_s": 1`), unread("duration_s")},
		{"fct sample_ms", fctOn(onStar, `"sample_ms": 10`), unread("sample_ms")},
		{"fct specs", fctOn(onStar, `"specs": `+okSpecs), unread("specs")},
		{"fct sched wrr", fctOn(onStar, `"sched": "wrr"`), unread("sched")},
		{"fct sched drr", fctOn(onStar, `"sched": "drr"`), unread("sched")},
		{"star leaves", fctOn(onStar, `"leaves": 4`), unread("leaves")},
		{"star spines", fctOn(onStar, `"spines": 2`), unread("spines")},
		{"star hosts_per_leaf", fctOn(onStar, `"hosts_per_leaf": 2`), unread("hosts_per_leaf")},
		{"star k", fctOn(onStar, `"k": 4`), unread("k")},
		{"leafspine servers", fctOn(onLeafSpine, `"servers": 4`), unread("servers")},
		{"leafspine k", fctOn(onLeafSpine, `"k": 4`), unread("k")},
		{"fattree servers", fctOn(onFatTree, `"servers": 4`), unread("servers")},
		{"fattree leaves", fctOn(onFatTree, `"leaves": 4`), unread("leaves")},
		{"fattree spines", fctOn(onFatTree, `"spines": 2`), unread("spines")},
		{"fattree hosts_per_leaf", fctOn(onFatTree, `"hosts_per_leaf": 2`), unread("hosts_per_leaf")},
		{"static max_runtime_s", staticWith(`"max_runtime_s": 5`, okSpecs), unread("max_runtime_s")},
		{"static request_response", staticWith(`"request_response": true`, okSpecs), unread("request_response")},
		{"fct queue_trace_stride", fctOn(onStar, `"queue_trace_stride": 4`), unread("queue_trace_stride")},
		// Float keys whose value does not fit int64 picoseconds or bits per
		// second once converted: they used to load and then panic (negative
		// link delay), run for ever, or be refused under the wrong key or as
		// negative.
		{"static rtt too large", strings.Replace(staticWith(`"seed": 1`, okSpecs), `"rtt_us": 100`, `"rtt_us": 1e20`, 1), "rtt_us: too large"},
		{"fct rtt too large", strings.Replace(fctOn(onStar, `"seed": 1`), `"rtt_us": 500`, `"rtt_us": 1e20`, 1), "rtt_us: too large"},
		{"static rate too large", strings.Replace(staticWith(`"seed": 1`, okSpecs), `"rate_gbps": 1`, `"rate_gbps": 1e10`, 1), "rate_gbps: too large"},
		{"fct rate too large", strings.Replace(fctOn(onStar, `"seed": 1`), `"rate_gbps": 1`, `"rate_gbps": 1e10`, 1), "rate_gbps: too large"},
		{"static min rto too large", staticWith(`"min_rto_ms": 1e15`, okSpecs), "min_rto_ms: too large"},
		{"fct min rto too large", fctOn(onStar, `"min_rto_ms": 1e15`), "min_rto_ms: too large"},
		{"static sample too large", staticWith(`"sample_ms": 1e12`, okSpecs), "sample_ms: too large"},
		{"static duration too large", strings.Replace(staticWith(`"seed": 1`, okSpecs), `"duration_s": 1`, `"duration_s": 1e20`, 1), "duration_s: too large"},
		{"fct detection delay too large", fctOn(onStar, `"detection_delay_ms": 1e15`), "detection_delay_ms: too large"},
		{"static stop too large", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "stop_at_s": 1e20}]`), "specs[0].stop_at_s: too large"},
		{"static start too large", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "start_at_s": 1e20}]`), "specs[0].start_at_s: too large"},
		{"static spacing too large", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "spacing_s": 1e20}]`), "specs[0].spacing_s: too large"},
		{"static tcn target too large", staticWith(`"tcn_target_us": 1e20`, okSpecs), "tcn_target_us: too large"},
		{"fct tcn target too large", fctOn(onStar, `"tcn_target_us": 1e20`), "tcn_target_us: too large"},
		{"fct max runtime too large", fctOn(onStar, `"max_runtime_s": 1e20`), "max_runtime_s: too large"},
		// The keys figure cells need, out of range.
		{"static negative size", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "size_bytes": -6000}]`), "specs[0].size_bytes"},
		{"static negative start", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "start_at_s": -1}]`), "specs[0].start_at_s"},
		{"static negative spacing", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "spacing_s": -0.001}]`), "specs[0].spacing_s"},
		{"static negative stride", staticWith(`"queue_trace_stride": -4`, okSpecs), "queue_trace_stride"},
		{"static shared hosts past the earlier specs'", staticWith(`"seed": 1`,
			`[{"class": 0, "flows": 2}, {"class": 1, "flows": 4, "hosts": 2, "shared_hosts": 2}]`), "specs[1].shared_hosts"},
		{"static negative shared hosts", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "shared_hosts": -1}]`), "specs[0].shared_hosts"},
		{"fct negative max runtime", fctOn(onStar, `"max_runtime_s": -1`), "max_runtime_s"},
		{"negative per-queue K", staticWith(`"per_queue_k_bytes": -30000`, okSpecs), "per_queue_k_bytes"},
		{"negative tcn target", fctOn(onStar, `"tcn_target_us": -240`), "tcn_target_us"},
		// Values that loaded and then overflowed inside a run's constructors:
		// a rate past 64 bits at the host NICs' speed-up, an arrival rate
		// whose gaps overflow picoseconds, weights whose product with the
		// buffer does.
		{"static rate past the NIC speed-up", strings.Replace(staticWith(`"seed": 1`, okSpecs), `"rate_gbps": 1`, `"rate_gbps": 9e9`, 1), "scenario: rate_gbps: "},
		{"fct rate past the NIC speed-up", strings.Replace(fctOn(onStar, `"seed": 1`), `"rate_gbps": 1`, `"rate_gbps": 9e9`, 1), "scenario: rate_gbps: "},
		{"fct load too small to time", strings.Replace(fctOn(onStar, `"seed": 1`), `"load": 0.5`, `"load": 1e-12`, 1), "scenario: load: "},
		{"weights past 64 bits", fctOn(onStar, `"weights": [9223372036854775807, 1, 1, 1]`), "overflows 64 bits"},
		// Positive values under one picosecond, which a run read as the
		// key's default: 500ms, 10s, 10ms, 1ms, the base RTT, jittered
		// starts, never.
		{"sample under a picosecond", staticWith(`"sample_ms": 1e-12`, okSpecs), "scenario: sample_ms: "},
		{"horizon under a picosecond", fctOn(onStar, `"max_runtime_s": 1e-13`), "scenario: max_runtime_s: "},
		{"RTO floor under a picosecond", fctOn(onStar, `"min_rto_ms": 1e-10`), "scenario: min_rto_ms: "},
		{"detection delay under a picosecond", fctOn(onLeafSpine, `"failure_aware": true, "detection_delay_ms": 1e-10`), "scenario: detection_delay_ms: "},
		{"TCN target under a picosecond", fctOn(onStar, `"tcn_target_us": 1e-7`), "scenario: tcn_target_us: "},
		{"spacing under a picosecond", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "spacing_s": 1e-13}]`), "scenario: specs[0].spacing_s: "},
		{"stop under a picosecond", staticWith(`"seed": 1`, `[{"class": 0, "flows": 2, "stop_at_s": 1e-13}]`), "scenario: specs[0].stop_at_s: "},
	}
	if _, err := Load([]byte(staticWith(`"seed": 1`, okSpecs))); err != nil {
		t.Fatalf("the static base document must load: %v", err)
	}
	for _, topo := range []string{onStar, onLeafSpine, onFatTree} {
		if _, err := Load([]byte(fctOn(topo, `"sched": "spq+drr"`))); err != nil {
			t.Fatalf("the fct base document on %s must load: %v", topo, err)
		}
	}
	if _, err := Load([]byte(strings.Replace(staticWith(`"seed": 1`, okSpecs), `"queues": 2`, `"queues": 64`, 1))); err != nil {
		t.Fatalf("64 queues, one backlog word, must load: %v", err)
	}
	if _, err := Load([]byte(staticWith(`"seed": 1`,
		`[{"class": 0, "flows": 4, "hosts": 2}, {"class": 1, "flows": 1, "hosts": 2, "shared_hosts": 2, "size_bytes": 1000}]`))); err != nil {
		t.Fatalf("a spec on both of the first spec's hosts must load: %v", err)
	}
	for _, tc := range cases {
		_, err := Load([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: Load accepted an invalid document", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: error %T is not a *ValidationError", tc.name, err)
		}
	}
}

// okSpecs is a valid two-queue specs array for staticWith.
const okSpecs = `[{"class": 0, "flows": 2}, {"class": 1, "flows": 4}]`

// staticWith is an otherwise valid two-queue static document carrying one
// extra field and the given specs.
func staticWith(field, specs string) string {
	return `{"kind": "static", "scheme": "DynaQ", "rate_gbps": 1, "buffer_bytes": 85000, "queues": 2,
		"rtt_us": 100, "duration_s": 1, ` + field + `, "specs": ` + specs + `}`
}

// The "topo" key and shape keys of one topology each, for fctOn.
const (
	onStar      = `"topo": "star", "servers": 4`
	onLeafSpine = `"topo": "leafspine", "leaves": 2, "spines": 2, "hosts_per_leaf": 2`
	onFatTree   = `"topo": "fattree", "k": 4`
)

// fctOn is an otherwise valid fct document on topo carrying one extra field.
func fctOn(topo, field string) string {
	return `{"kind": "fct", "scheme": "DynaQ", ` + topo + `, "rate_gbps": 1, "buffer_bytes": 85000, "queues": 4,
		"rtt_us": 500, "load": 0.5, "flows": 10, "workloads": ["websearch"], ` + field + `}`
}

// unread is the start of the error that refuses key as one the run never
// reads.
func unread(key string) string { return "scenario: " + key + ": " }

// TestLoadTypedErrors: validation failures carry the offending JSON field so
// an HTTP server can return a structured 400 body; decode failures carry an
// empty field.
func TestLoadTypedErrors(t *testing.T) {
	_, err := Load([]byte(`{"kind": "static", "rate_gbps": 0, "buffer_bytes": 1, "queues": 2, "rtt_us": 1}`))
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %T is not a *ValidationError", err)
	}
	if verr.Field != "rate_gbps" {
		t.Fatalf("field %q, want rate_gbps", verr.Field)
	}
	_, err = Load([]byte(`{not json`))
	if !errors.As(err, &verr) {
		t.Fatalf("decode error %T is not a *ValidationError", err)
	}
	if verr.Field != "" {
		t.Fatalf("decode error carries field %q, want empty", verr.Field)
	}

	// What used to fail only on a worker — or, for a scheme name under the
	// flow engine, not at all — is refused at load, under every engine.
	const static = `{"kind": "static", "rate_gbps": 1, "buffer_bytes": 85000, "queues": 4, "rtt_us": 500,
		"duration_s": 1, "specs": [{"class": 1, "flows": 2}], `
	const fct = `{"kind": "fct", "rate_gbps": 10, "buffer_bytes": 192000, "queues": 4, "rtt_us": 80,
		"load": 0.5, "flows": 10, "workloads": ["websearch"], `
	for _, tc := range []struct{ doc, field string }{
		{static + `"scheme": "DynQ"}`, "scheme"},
		{static + `"scheme": "DynaQ", "sched": "fifo"}`, "sched"},
		{fct + `"scheme": "DynQ", "topo": "star"}`, "scheme"},
		{fct + `"scheme": "DynQ", "topo": "star", "engine": "flow"}`, "scheme"},
		{fct + `"scheme": "DynQ", "topo": "star", "engine": "hybrid"}`, "scheme"},
		{fct + `"scheme": "DynaQ", "topo": "star", "sched": "fifo"}`, "sched"},
		{fct + `"scheme": "DynaQ", "topo": "ring"}`, "topo"},
		{fct + `"scheme": "DynaQ", "topo": "leafspine", "leaves": 1, "spines": 2, "hosts_per_leaf": 2}`, "leaves"},
		{fct + `"scheme": "DynaQ", "topo": "fattree", "k": 5}`, "k"},
		{fct + `"scheme": "DynaQ", "topo": "fattree", "k": 4, "engine": "flow", "guard": true}`, "engine"},
		{fct + `"scheme": "DynaQ", "topo": "star", "flows": 0}`, "flows"},
		// What the runners' own validation tests held configs to, as documents.
		{staticWith(`"seed": 1`, `[{"class": 0, "flows": 0}]`), "specs[0].flows"},
		{staticWith(`"seed": 1`, `[{"class": 0, "flows": 4, "hosts": 2}, {"class": 1, "flows": 1, "shared_hosts": -1}]`), "specs[1].shared_hosts"},
		{staticWith(`"seed": 1`, `[{"class": 1, "flows": 1, "shared_hosts": 1}]`), "specs[0].shared_hosts"},
		{staticWith(`"seed": 1`, `[{"class": 0, "flows": 4, "hosts": 2}, {"class": 1, "flows": 1, "shared_hosts": 2}]`), "specs[1].shared_hosts"},
		{`{"kind": "fct", "scheme": "DynaQ", "topo": "star", "rate_gbps": 1, "buffer_bytes": 85000, "queues": 4,
			"rtt_us": 500, "load": 0.5, "flows": 10}`, "workloads"},
		{strings.Replace(fctOn(onStar, `"seed": 1`), `"queues": 4`, `"queues": 1`, 1), "queues"},
		// A negative server count used to run the default four; a detection
		// delay without failure-aware routing was ignored.
		{fctOn(`"topo": "star", "servers": -3`, `"seed": 1`), "servers"},
		{fctOn(onStar, `"detection_delay_ms": 3`), "detection_delay_ms"},
		// Fabrics too large to allocate used to exhaust memory at load.
		{fctOn(`"topo": "star", "servers": 1000000000`, `"seed": 1`), "servers"},
		{fctOn(`"topo": "leafspine", "leaves": 2, "spines": 1000000000, "hosts_per_leaf": 2`, `"seed": 1`), "leaves"},
		{fctOn(`"topo": "fattree", "k": 200`, `"seed": 1`), "k"},
	} {
		_, err := Load([]byte(tc.doc))
		if !errors.As(err, &verr) || verr.Field != tc.field {
			t.Errorf("%s\n\tgot %v, want a ValidationError on %q", tc.doc, err, tc.field)
		}
	}
	// The fat tree is valid on every engine.
	for _, engine := range []string{"packet", "flow", "hybrid"} {
		if _, err := Load([]byte(fct + `"scheme": "DynaQ", "topo": "fattree", "k": 4, "engine": "` + engine + `"}`)); err != nil {
			t.Errorf("fattree under %s: %v", engine, err)
		}
	}
}

// hybridWith is an fct document running scheme on engine.
func hybridWith(scheme, engine string) string {
	return `{"kind": "fct", "scheme": "` + scheme + `", "engine": "` + engine + `", "topo": "star",
		"rate_gbps": 1, "buffer_bytes": 85000, "queues": 4, "rtt_us": 500, "load": 0.5, "flows": 10,
		"workloads": ["websearch"]}`
}

// TestHybridRefusesWhatThePumpCannotRun: DT needs switch memory and BarberQ
// evicts; the hybrid episode pump has neither, so both are refused at load
// under the hybrid engine, and load under the packet engine.
func TestHybridRefusesWhatThePumpCannotRun(t *testing.T) {
	for _, scheme := range []string{"DT", "BarberQ"} {
		_, err := Load([]byte(hybridWith(scheme, "hybrid")))
		var verr *ValidationError
		if !errors.As(err, &verr) || verr.Field != "scheme" {
			t.Errorf("%s under hybrid: got %v, want a ValidationError on scheme", scheme, err)
		}
		if _, err := Load([]byte(hybridWith(scheme, "packet"))); err != nil {
			t.Errorf("%s under packet: %v", scheme, err)
		}
	}
}

// TestLoadRejectsOversizedDocument: an untrusted body past MaxDocumentBytes
// is refused before decoding.
func TestLoadRejectsOversizedDocument(t *testing.T) {
	doc := append([]byte(`{"kind": "static"`), bytes.Repeat([]byte(" "), MaxDocumentBytes)...)
	_, err := Load(doc)
	if err == nil {
		t.Fatal("oversized document accepted")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %T is not a *ValidationError", err)
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("error %q does not mention the limit", err)
	}
}

// TestLoadWithOverrides: the sweep expansion path replaces scheme/seed
// before validation without touching the document bytes.
func TestLoadWithOverrides(t *testing.T) {
	doc := []byte(`{"kind": "static", "scheme": "BestEffort", "rate_gbps": 1,
	  "buffer_bytes": 30000, "queues": 2, "rtt_us": 100, "duration_s": 1, "seed": 1,
	  "specs": [{"class": 0, "flows": 2}]}`)
	seed := int64(42)
	r, err := LoadWith(doc, Overrides{Scheme: "DynaQ", Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme() != "DynaQ" || r.Seed() != 42 {
		t.Fatalf("overrides not applied: scheme=%q seed=%d", r.Scheme(), r.Seed())
	}
	if adm, err := r.network().NewAdmission(30000, 2, nil); err != nil || adm.Name() != "DynaQ" {
		t.Fatalf("the overriding scheme does not reach the ports: %v", err)
	}
	// No overrides leaves the document untouched.
	r, err = Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme() != "BestEffort" || r.Seed() != 1 {
		t.Fatalf("plain Load altered the document: scheme=%q seed=%d", r.Scheme(), r.Seed())
	}
}

// TestLoadAcceptsFaultFields: a well-formed document carrying faults, guard,
// and failure-aware routing loads into both runner kinds.
func TestLoadAcceptsFaultFields(t *testing.T) {
	doc := `{
	  "kind": "fct",
	  "scheme": "DynaQ",
	  "topo": "leafspine",
	  "leaves": 2, "spines": 2, "hosts_per_leaf": 2,
	  "rate_gbps": 10,
	  "buffer_bytes": 196608,
	  "queues": 4,
	  "rtt_us": 80,
	  "load": 0.5,
	  "flows": 50,
	  "workloads": ["websearch"],
	  "min_rto_ms": 5,
	  "seed": 7,
	  "guard": true,
	  "failure_aware": true,
	  "detection_delay_ms": 0.5,
	  "faults": [
	    {"kind": "flap", "target": "spine0", "at_s": 0.002, "until_s": 0.03, "period_s": 0.01, "jitter_s": 0.001},
	    {"kind": "loss", "target": "leaf0:spine1", "at_s": 0, "rate": 0.005}
	  ]
	}`
	r, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Document(); !d.Guard || !d.FailureAware || len(d.Faults) != 2 {
		t.Fatalf("guard %v, failure-aware %v, %d faults; want true, true, 2", d.Guard, d.FailureAware, len(d.Faults))
	}
	if got := r.doc.detectionDelay(nil); got != 500*units.Microsecond {
		t.Fatalf("detection delay %v, want 500us", got)
	}
}

// FuzzLoad asserts that Load never panics: arbitrary byte soup must come
// back as (runner, nil) or (nil, error), nothing else.
func FuzzLoad(f *testing.F) {
	for _, data := range loadCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(data)
		if (r == nil) == (err == nil) {
			t.Fatalf("Load returned runner=%v err=%v", r != nil, err)
		}
		var verr *ValidationError
		if err != nil && !errors.As(err, &verr) {
			t.Fatalf("Load error %T is not a *ValidationError: %v", err, err)
		}
	})
}
