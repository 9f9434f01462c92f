package experiment

import (
	"errors"
	"testing"

	"dynaq/internal/units"
)

// TestStaticConfigRejectsBadSpecs: every spec field a static run cannot
// honour is refused before simulating, naming the spec and the field.
func TestStaticConfigRejectsBadSpecs(t *testing.T) {
	cfg := func(specs ...QueueSpec) StaticConfig {
		return testbedStatic(DynaQ, equalWeights(4), specs, units.Second, 1)
	}
	hog := QueueSpec{Class: 2, Flows: 4, Hosts: 2}
	negativeRTO := cfg(hog)
	negativeRTO.MinRTO = -units.Millisecond
	cases := []struct {
		name  string
		cfg   StaticConfig
		field string
	}{
		{"negative min rto", negativeRTO, "min_rto_ms"},
		{"negative stop", cfg(hog, QueueSpec{Class: 1, Flows: 1, StopAt: -units.Second}), "specs[1].stop_at_s"},
		{"negative size", cfg(QueueSpec{Class: 1, Flows: 1, Size: -1}), "specs[0].size_bytes"},
		{"negative start", cfg(QueueSpec{Class: 1, Flows: 1, Start: -units.Millisecond}), "specs[0].start_at_s"},
		{"negative spacing", cfg(QueueSpec{Class: 1, Flows: 1, Spacing: -units.Microsecond}), "specs[0].spacing_s"},
		{"negative shared hosts", cfg(hog, QueueSpec{Class: 1, Flows: 1, SharedHosts: -1}), "specs[1].shared_hosts"},
		{"shared host with no spec before", cfg(QueueSpec{Class: 1, Flows: 1, SharedHosts: 1}), "specs[0].shared_hosts"},
		{"shared hosts past the earlier specs'", cfg(hog, QueueSpec{Class: 1, Flows: 3, Hosts: 3, SharedHosts: 3}), "specs[1].shared_hosts"},
		{"shared hosts past the spec's own", cfg(hog, QueueSpec{Class: 1, Flows: 1, SharedHosts: 2}), "specs[1].shared_hosts"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: Validate() = %v, want a *ConfigError", tc.name, err)
			continue
		}
		if cerr.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, cerr.Field, tc.field)
		}
	}
	if err := cfg(hog, QueueSpec{Class: 1, Flows: 1, SharedHosts: 2, Hosts: 2, Size: units.KB}).Validate(); err != nil {
		t.Errorf("a spec on both of the hog's hosts must validate: %v", err)
	}
}

// TestRunStaticFiniteFlowsRecordOneFCTEach: every finite flow completes
// once into StaticResult.FCT and no long-lived flow does; an OwnSink spec
// never reaches the measured port.
func TestRunStaticFiniteFlowsRecordOneFCTEach(t *testing.T) {
	specs := []QueueSpec{
		{Class: 0, Flows: 3, Hosts: 2, OwnSink: true},
		{Class: 1, Flows: 4},
		{Class: 2, Flows: 5, Size: 30 * units.KB, Start: 100 * units.Millisecond, Spacing: units.Millisecond},
		{Class: 3, Flows: 6, Size: 6 * units.KB, SharedHosts: 1, Start: 200 * units.Millisecond, Spacing: units.Microsecond},
	}
	res, err := RunStatic(testbedStatic(DynaQ, equalWeights(4), specs, units.Second, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[units.ByteSize]int{}
	for _, r := range res.FCT.Records() {
		got[r.Size]++
	}
	want := map[units.ByteSize]int{30 * units.KB: 5, 6 * units.KB: 6}
	if len(got) != len(want) || got[30*units.KB] != want[30*units.KB] || got[6*units.KB] != want[6*units.KB] {
		t.Errorf("completions by flow size = %v, want %v", got, want)
	}
	if res.QueueDrops[0] != 0 {
		t.Errorf("the OwnSink queue dropped %d packets at the measured port", res.QueueDrops[0])
	}
	for _, s := range res.Samples {
		if s.PerQueue[0] != 0 || s.PerQueue[1] == 0 {
			t.Errorf("at %v queue 0 carried %v and queue 1 %v at the measured port, want 0 and more",
				s.At, s.PerQueue[0], s.PerQueue[1])
		}
	}
}
