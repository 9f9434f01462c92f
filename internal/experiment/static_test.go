package experiment_test

import (
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/scenario"
	"dynaq/internal/units"
)

// TestRunStaticFiniteFlowsRecordOneFCTEach: every finite flow completes
// once into StaticResult.FCT and no long-lived flow does; an OwnSink spec
// never reaches the measured port.
func TestRunStaticFiniteFlowsRecordOneFCTEach(t *testing.T) {
	res := runCell(t, staticCell(experiment.DynaQ, 4, 1, 1,
		scenario.Spec{Class: 0, Flows: 3, Hosts: 2, OwnSink: true},
		scenario.Spec{Class: 1, Flows: 4},
		scenario.Spec{Class: 2, Flows: 5, SizeB: 30000, StartS: 0.1, SpacingS: 0.001},
		scenario.Spec{Class: 3, Flows: 6, SizeB: 6000, SharedHosts: 1, StartS: 0.2, SpacingS: 1e-6},
	)).Static
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
