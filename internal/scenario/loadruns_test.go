package scenario

import (
	"errors"
	"strings"
	"testing"
)

// TestLoadRefusesWhatRunWouldRefuse: documents whose values every earlier
// check accepted, and which a run then refused or silently ran as another
// network, are refused at load naming the key to fix. Each has a repaired
// twin that differs only in that key and loads and runs, so the key named is
// the cause.
func TestLoadRefusesWhatRunWouldRefuse(t *testing.T) {
	const (
		lossOn = `"faults": [{"kind": "loss", "target": "%s", "at_s": 0, "rate": 0.01}]`
		downOn = `"faults": [{"kind": "down", "target": "%s", "at_s": 0.1}]`
		spqDRR = `{"kind": "static", "scheme": "DynaQ", "sched": "spq+drr", "rate_gbps": 1, "buffer_bytes": 85000,
			"queues": %s, "rtt_us": 100, "duration_s": 0.2, "specs": [{"class": 0, "flows": 2}]}`
		onStarN = `"topo": "star", "servers": %s`
	)
	with := func(format, value string) string { return strings.Replace(format, "%s", value, 1) }
	for _, tc := range []struct {
		name, field string
		bad, good   string
	}{
		{"fault on a link the leaf-spine lacks", "faults",
			fctOn(onLeafSpine, with(lossOn, "leaf9:spine9")), fctOn(onLeafSpine, with(lossOn, "leaf1:spine1"))},
		{"fault on a switch the star lacks", "faults",
			staticWith(with(downOn, "spine0"), okSpecs), staticWith(with(downOn, "tor"), okSpecs)},
		{"spq+drr with no DRR queue", "queues", with(spqDRR, "1"), with(spqDRR, "2")},
		{"flow engine at zero RTT", "rtt_us",
			strings.Replace(fctOn(onStar, `"engine": "flow"`), `"rtt_us": 500`, `"rtt_us": 0`, 1),
			fctOn(onStar, `"engine": "flow"`)},
		{"hybrid engine on a one-byte buffer", "buffer_bytes",
			strings.Replace(fctOn(onStar, `"engine": "hybrid"`), `"buffer_bytes": 85000`, `"buffer_bytes": 1`, 1),
			fctOn(onStar, `"engine": "hybrid"`)},
		{"negative servers", "servers", fctOn(with(onStarN, "-3"), `"seed": 1`), fctOn(with(onStarN, "3"), `"seed": 1`)},
		{"detection delay without failure-aware routing", "detection_delay_ms",
			fctOn(onStar, `"detection_delay_ms": 3`), fctOn(onStar, `"detection_delay_ms": 3, "failure_aware": true`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.bad))
			var verr *ValidationError
			if !errors.As(err, &verr) || verr.Field != tc.field {
				t.Fatalf("Load = %v, want a ValidationError on %q", err, tc.field)
			}
			r, err := Load([]byte(tc.good))
			if err != nil {
				t.Fatalf("the repaired document does not load: %v", err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatalf("the repaired document does not run: %v", err)
			}
		})
	}
}

// loadCorpus seeds the fuzz targets over Load: the package's documents,
// documents each loader check refuses, and hostile bodies.
func loadCorpus() [][]byte {
	return [][]byte{
		[]byte(staticDoc),
		[]byte(fctDoc),
		[]byte(`{`),
		[]byte(`{"kind": "static"}`),
		[]byte(`{"kind": "fct", "rate_gbps": 1e308, "buffer_bytes": 9223372036854775807, "queues": 2147483647}`),
		[]byte(`{"kind": "static", "rate_gbps": 1, "buffer_bytes": 1000, "queues": 2, "rtt_us": 100,
	  "duration_s": 1, "faults": [{"kind": "flap", "target": "", "at_s": -1}]}`),
		[]byte(staticWith(`"sample_ms": -5`, okSpecs)),
		[]byte(staticWith(`"sample_ms": 1e-300`, `[]`)),
		[]byte(staticWith(`"mtu": 20`, okSpecs)),
		[]byte(staticWith(`"weights": [0, -1]`, `[{"class": 7, "flows": -1, "hosts": 9223372036854775807}]`)),
		[]byte(strings.Replace(staticWith(`"seed": 1`, okSpecs), `"duration_s": 1`, `"duration_s": -1e300`, 1)),
		[]byte(hybridWith("DT", "hybrid")),
		[]byte(hybridWith("BarberQ", "hybrid")),
		[]byte(staticWith(`"topo": "leafspine", "leaves": 4, "flows": 100, "load": 0.5`, okSpecs)),
		[]byte(fctOn(onFatTree, `"sched": "wrr", "servers": 4, "duration_s": 1`)),
		// Documents that loaded and then failed to run.
		[]byte(fctOn(onLeafSpine, `"faults": [{"kind": "loss", "target": "leaf9:spine9", "at_s": 0, "rate": 0.01}]`)),
		[]byte(strings.Replace(fctOn(onStar, `"engine": "hybrid"`), `"buffer_bytes": 85000`, `"buffer_bytes": 1`, 1)),
		[]byte(fctOn(onLeafSpine, `"guard": true, "failure_aware": true, "detection_delay_ms": 0.5,
		  "faults": [{"kind": "flap", "target": "spine0", "at_s": 0.002, "until_s": 0.03, "period_s": 0.01, "jitter_s": 0.001}]`)),
		// Untrusted-upload hardening: a body past the size limit must be
		// refused outright, and pathologically deep nesting must come back as
		// the decoder's depth error, never a stack overflow.
		[]byte(strings.Repeat(`{"kind":`, MaxDocumentBytes/8+1)),
		[]byte(strings.Repeat("[", 50_000) + "1" + strings.Repeat("]", 50_000)),
		[]byte(`{"specs": ` + strings.Repeat(`[`, 12_000) + strings.Repeat(`]`, 12_000) + `}`),
	}
}

// clampWork cuts doc's work to a tiny budget: a few flows on a few hosts for
// a few simulated milliseconds. What it leaves invalid no longer loads.
func clampWork(doc *Document) {
	const (
		flows   = 8
		horizon = 0.02 // seconds
	)
	doc.Flows = min(doc.Flows, flows)
	doc.DurationS = min(doc.DurationS, horizon)
	if doc.Kind == "fct" {
		doc.MaxRuntimeS = horizon
	}
	if doc.SampleMs > 0 {
		doc.SampleMs = max(doc.SampleMs, 1)
	}
	for i := range doc.Specs {
		sp := &doc.Specs[i]
		sp.Flows = min(sp.Flows, 4)
		sp.Hosts = min(sp.Hosts, 4)
		sp.SharedHosts = min(sp.SharedHosts, sp.Hosts)
	}
	doc.Servers = min(doc.Servers, 4)
	doc.Leaves = min(doc.Leaves, 3)
	doc.Spines = min(doc.Spines, 2)
	doc.HostsPerLeaf = min(doc.HostsPerLeaf, 2)
	doc.FatTreeK = min(doc.FatTreeK, 4)
	// A flap plans every toggle up front: keep it to a thousand of them.
	for i := range doc.Faults {
		if f := &doc.Faults[i]; f.PeriodS > 0 {
			f.UntilS = min(f.UntilS, f.AtS+500*f.PeriodS)
		}
	}
}

// FuzzLoadRuns holds the loader to its contract: a document that loads, runs.
// Any input Load accepts is cut to a tiny budget and loaded again; if that
// loads too, Run must return a result and no error, and must not panic.
func FuzzLoadRuns(f *testing.F) {
	for _, data := range loadCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(data)
		if err != nil {
			return
		}
		doc := r.Document()
		clampWork(&doc)
		small := mustJSON(t, doc)
		if r, err = Load(small); err != nil {
			return
		}
		res, err := r.Run()
		if err != nil || res == nil {
			t.Fatalf("%s\nloaded, then Run = %v, %v", small, res, err)
		}
	})
}
