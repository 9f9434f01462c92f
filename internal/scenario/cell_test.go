package scenario

import (
	"errors"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/units"
)

// TestMQECNQuantaFollowMTU: on jumbo frames the DRR scheduler serves
// weight·9000 bytes per round, so the MQ-ECN instance a static run builds for
// its ports must estimate each queue's service rate from those same quanta,
// not from 1500-byte ones.
func TestMQECNQuantaFollowMTU(t *testing.T) {
	r := load(t, Document{Kind: "static", Scheme: "MQ-ECN", Sched: "drr", Weights: []int64{2, 1},
		RateGbps: 10, RTTUs: 40, BufferB: 1000000, Queues: 2, MTU: 9000,
		Specs: []Spec{{Class: 0, Flows: 1}}, DurationS: 1})
	adm, err := r.network().NewAdmission(units.MB, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := adm.(*buffer.MQECN)
	want, err := buffer.NewMQECN(10*units.Gbps, r.params.BaseRTT, []units.ByteSize{2 * 9000, 9000})
	if err != nil {
		t.Fatal(err)
	}
	// One 100µs round: both queues well under the 10Gbps link rate, so
	// each threshold is set by its quantum.
	for _, m := range []*buffer.MQECN{got, want} {
		m.ObserveDequeue(nil, 0, 9000, 0)
		m.ObserveDequeue(nil, 1, 9000, units.Time(50*units.Microsecond))
		m.ObserveDequeue(nil, 0, 9000, units.Time(100*units.Microsecond))
	}
	for q := 0; q < 2; q++ {
		if g, w := got.QueueThreshold(q), want.QueueThreshold(q); g != w {
			t.Errorf("queue %d: MQ-ECN threshold %v at MTU 9000, want %v (quanta of weight·MTU)", q, g, w)
		}
	}
}

// TestStarHostsNameTheirKey: a star too large for a fabric is refused under
// the document key its host count comes from: servers on an fct cell, specs
// on a static one, whose senders and own sinks make up the star. No document
// under scenario.MaxDocumentBytes holds the static one's half a million
// own-sink specs, so the loader's tests cannot reach it.
func TestStarHostsNameTheirKey(t *testing.T) {
	for _, key := range []string{"servers", "specs"} {
		_, err := newStar(1<<20, units.Gbps, key)
		var cerr *ValidationError
		if !errors.As(refusal(err), &cerr) || cerr.Field != key {
			t.Errorf("newStar(1<<20, %q) = %v, want a ValidationError on %q", key, err, key)
		}
	}
}
