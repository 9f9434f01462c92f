package buffer

import (
	"math"
	"testing"

	"dynaq/internal/units"
)

// fakeView is a mutable port-state stub.
type fakeView struct {
	b     units.ByteSize
	qlens []units.ByteSize
}

func (f *fakeView) NumQueues() int                { return len(f.qlens) }
func (f *fakeView) QueueLen(i int) units.ByteSize { return f.qlens[i] }
func (f *fakeView) Buffer() units.ByteSize        { return f.b }

func (f *fakeView) TotalLen() units.ByteSize {
	var sum units.ByteSize
	for _, q := range f.qlens {
		sum += q
	}
	return sum
}

func TestBestEffortAdmitsUntilPortFull(t *testing.T) {
	be := NewBestEffort()
	v := &fakeView{b: 10000, qlens: []units.ByteSize{9000, 0}}
	if !be.Admit(v, 1, 1000) {
		t.Error("exact fit must be admitted")
	}
	if be.Admit(v, 1, 1001) {
		t.Error("overflow must be rejected")
	}
	// Queue identity is irrelevant: one queue may hog everything.
	v = &fakeView{b: 10000, qlens: []units.ByteSize{10000, 0}}
	if be.Admit(v, 1, 1) {
		t.Error("full port rejects all queues")
	}
	if be.Name() != "BestEffort" {
		t.Errorf("Name = %q", be.Name())
	}
}

func TestPQLValidation(t *testing.T) {
	if _, err := NewPQL(nil); err == nil {
		t.Error("empty quotas should fail")
	}
	if _, err := NewPQL([]units.ByteSize{100, 0}); err == nil {
		t.Error("zero quota should fail")
	}
	if _, err := NewWeightedPQL(0, []int64{1}); err == nil {
		t.Error("zero buffer should fail")
	}
	if _, err := NewWeightedPQL(100, nil); err == nil {
		t.Error("no weights should fail")
	}
	if _, err := NewWeightedPQL(100, []int64{1, -1}); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestPQLEnforcesStaticQuota(t *testing.T) {
	p, err := NewWeightedPQL(85*units.KB, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Quota(0) != 21250 {
		t.Fatalf("quota = %d, want 21250", p.Quota(0))
	}
	v := &fakeView{b: 85 * units.KB, qlens: []units.ByteSize{21000, 0, 0, 0}}
	if p.Admit(v, 0, 250) != true {
		t.Error("within quota must be admitted")
	}
	if p.Admit(v, 0, 251) {
		t.Error("beyond quota must drop, even with free port buffer")
	}
	// Not work-conserving: other queues idle does not help queue 0.
	if got := p.Name(); got != "PQL" {
		t.Errorf("Name = %q", got)
	}
}

func TestDynaQAdmitGrowsIntoIdleQueues(t *testing.T) {
	d, err := NewDynaQ(4000, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Queue 0 at its initial threshold (1000); other queues idle. PQL
	// would drop, DynaQ steals threshold and admits.
	v := &fakeView{b: 4000, qlens: []units.ByteSize{1000, 0, 0, 0}}
	if !d.Admit(v, 0, 500) {
		t.Fatal("DynaQ must admit into free buffer")
	}
	if got := d.State().Threshold(0); got != 1500 {
		t.Fatalf("T_0 = %d after adjust, want 1500", got)
	}
}

func TestDynaQAdmitProtectsUnsatisfiedActiveQueues(t *testing.T) {
	d, err := NewDynaQ(4000, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// All queues active and none above satisfaction: stealing is illegal.
	v := &fakeView{b: 4000, qlens: []units.ByteSize{1000, 500, 500, 500}}
	if d.Admit(v, 0, 500) {
		t.Fatal("DynaQ must protect unsatisfied active victims")
	}
}

func TestDynaQAdmitsUnderOwnThresholdDespiteFullPort(t *testing.T) {
	// Queue 1 monopolized the physical buffer (its backlog exceeds its
	// threshold after being victimized). Queue 0's packet is within its
	// own budget and must be admitted — the over-threshold backlog of the
	// aggressor may not veto the protected queue (see the DynaQ doc
	// comment on per-queue admission).
	d, err := NewDynaQ(4000, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	v := &fakeView{b: 4000, qlens: []units.ByteSize{500, 3500, 0, 0}}
	if !d.Admit(v, 0, 400) {
		t.Fatal("within-threshold packet must be admitted")
	}
	if d.Name() != "DynaQ" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDynaQSlashedVictimBacklogDrops(t *testing.T) {
	// A victim whose threshold fell below its standing backlog keeps
	// dropping its own arrivals until it drains back under the threshold.
	d, err := NewDynaQ(4000, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Steal from idle queue 1 into queue 0 a few times.
	v := &fakeView{b: 4000, qlens: []units.ByteSize{1000, 0, 0, 0}}
	for i := 0; i < 3; i++ {
		if !d.Admit(v, 0, 300) {
			t.Fatalf("steal %d rejected", i)
		}
		v.qlens[0] += 300
	}
	// Now pretend queue 1 had a backlog above its reduced threshold.
	v.qlens[1] = d.State().Threshold(1) + 200
	if d.Admit(v, 1, 1500) {
		// Queue 1 may recover threshold via Algorithm 1, but its backlog
		// is above even the raised threshold only if no donor exists;
		// with donors around the admit can succeed. Accept either, but
		// the invariant ΣT = B must hold.
	}
	if err := d.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPerQueueECNValidation(t *testing.T) {
	if _, err := NewPerQueueECN(0, 30*units.KB); err == nil {
		t.Error("zero queues should fail")
	}
	if _, err := NewPerQueueECN(4, 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestPerQueueECNMarksPerQueue(t *testing.T) {
	p, err := NewPerQueueECN(2, 30*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	v := &fakeView{b: 85 * units.KB, qlens: []units.ByteSize{29 * units.KB, 31 * units.KB}}
	if p.MarkOnEnqueue(v, 0, 500) {
		t.Error("queue under K must not mark")
	}
	if !p.MarkOnEnqueue(v, 1, 500) {
		t.Error("queue over K must mark")
	}
	// Admission is inherited best-effort.
	if !p.Admit(v, 0, 1000) {
		t.Error("PerQueueECN admission should be best-effort")
	}
}

func TestPMSBMarksOnlyWhenBothExceeded(t *testing.T) {
	// K = 60KB, equal weights → K_i = 30KB.
	p, err := NewPMSB(60*units.KB, []int64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Port below K: no marking even for a fat queue ("selective
	// blindness" to transient single-queue bursts).
	v := &fakeView{b: 200 * units.KB, qlens: []units.ByteSize{40 * units.KB, 0}}
	if p.MarkOnEnqueue(v, 0, 1500) {
		t.Error("port below K must not mark")
	}
	// Port above K but this queue under K_i: no marking.
	v = &fakeView{b: 200 * units.KB, qlens: []units.ByteSize{20 * units.KB, 50 * units.KB}}
	if p.MarkOnEnqueue(v, 0, 1500) {
		t.Error("queue below K_i must not mark")
	}
	// Both exceeded: mark.
	if !p.MarkOnEnqueue(v, 1, 1500) {
		t.Error("port over K and queue over K_i must mark")
	}
	if p.Name() != "PMSB" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestDynaQECNIsPMSBMarking(t *testing.T) {
	// 1Gbps × 480µs: the table's K is 60KB, so K_i = 30KB each.
	p := SchemeParams{Rate: units.Gbps, BaseRTT: 480 * units.Microsecond, Weights: []int64{1, 1}}
	d, err := NewScheme("DynaQ-ECN", p, 200*units.KB, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "DynaQ-ECN" {
		t.Errorf("Name = %q", d.Name())
	}
	v := &fakeView{b: 200 * units.KB, qlens: []units.ByteSize{31 * units.KB, 31 * units.KB}}
	if !d.(EnqueueMarker).MarkOnEnqueue(v, 0, 1500) {
		t.Error("DynaQ-ECN must apply PMSB marking")
	}
}

// TestEveryRowNamesItself: an instance reports its row's name, the rows that
// share a constructor (the DynaQ ablations, DynaQ-ECN) included.
func TestEveryRowNamesItself(t *testing.T) {
	p := SchemeParams{Rate: units.Gbps, BaseRTT: 480 * units.Microsecond, MTU: 1500, Weights: []int64{1, 2, 3}}
	for _, name := range SchemeNames() {
		mem, err := NewSharedPool(600 * units.KB)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewScheme(name, p, 200*units.KB, 3, mem)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("row %s builds an instance named %q", name, a.Name())
		}
	}
}

func TestPMSBValidation(t *testing.T) {
	if _, err := NewPMSB(0, []int64{1}); err == nil {
		t.Error("zero K should fail")
	}
	if _, err := NewPMSB(30*units.KB, nil); err == nil {
		t.Error("no queues should fail")
	}
	if _, err := NewPMSB(30*units.KB, []int64{1, 0}); err == nil {
		t.Error("zero weight should fail")
	}
}

// TestWeightedSplitRefusesOverflow: the rows that split a threshold by
// weight refuse weights whose sum, or the threshold times it, leaves 64
// bits, as core.New does, where the split used to wrap to K_i = 0 and −2.
func TestWeightedSplitRefusesOverflow(t *testing.T) {
	if _, err := NewPMSB(62500, []int64{3, 3074457345618258602}); err == nil {
		t.Error("NewPMSB: K·Σw past 64 bits must be refused")
	}
	if _, err := NewWeightedPQL(62500, []int64{math.MaxInt64, 1}); err == nil {
		t.Error("NewWeightedPQL: Σw past 64 bits must be refused")
	}
	// 1 Gbps × 500 µs: the marking rows' K is 62 500 B.
	p := SchemeParams{Rate: units.Gbps, BaseRTT: 500 * units.Microsecond, MTU: 1500}
	for _, tc := range []struct {
		w  []int64
		ok bool
	}{
		{[]int64{3, 3074457345618258602}, false},                                                  // 62 500·Σw past 2⁶³
		{[]int64{math.MaxInt64 - 1, 2}, false},                                                    // Σw itself past 2⁶³
		{[]int64{math.MaxInt64 / int64(400*units.KB), math.MaxInt64 / int64(400*units.KB)}, true}, // near the largest Σw PQL's 200 KB takes
	} {
		p.Weights = tc.w
		for _, row := range []string{"PMSB", "DynaQ-ECN", "PQL"} {
			a, err := NewScheme(row, p, 200*units.KB, 2, nil)
			if ok := err == nil; ok != tc.ok {
				t.Errorf("%s, weights %v: error %v, want ok %v", row, tc.w, err, tc.ok)
				continue
			}
			if err != nil {
				continue
			}
			// No part wrapped: each is total·w_i/Σw, in [0, total].
			for i := range tc.w {
				var part, total units.ByteSize
				switch m := a.(type) {
				case *PMSB:
					part, total = m.QueueThreshold(i), m.PortThreshold()
				case *PQL:
					part, total = m.Quota(i), 200*units.KB
				}
				if part < 0 || part > total {
					t.Errorf("%s, weights %v: part %d of queue %d outside [0, %d]", row, tc.w, part, i, total)
				}
			}
		}
	}
}

func TestPMSBThresholds(t *testing.T) {
	// K = 60KB, weights 1:2:3 → K_i = 10/20/30 KB.
	m, err := NewPMSB(60*units.KB, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.PortThreshold() != 60*units.KB {
		t.Fatalf("K = %v", m.PortThreshold())
	}
	want := []units.ByteSize{10 * units.KB, 20 * units.KB, 30 * units.KB}
	for i, w := range want {
		if got := m.QueueThreshold(i); got != w {
			t.Errorf("K_%d = %d, want %d", i, got, w)
		}
	}
}

func TestPMSBMarkRequiresBothConditions(t *testing.T) {
	// PMSB semantics: mark iff port occupancy > K AND q_i > K_i.
	m, err := NewPMSB(60*units.KB, []int64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// K = 60KB, K_i = 30KB each.
	tests := []struct {
		name    string
		portOcc units.ByteSize
		qi      units.ByteSize
		want    bool
	}{
		{name: "both exceeded", portOcc: 61 * units.KB, qi: 31 * units.KB, want: true},
		{name: "only port exceeded", portOcc: 61 * units.KB, qi: 30 * units.KB, want: false},
		{name: "only queue exceeded", portOcc: 60 * units.KB, qi: 31 * units.KB, want: false},
		{name: "neither", portOcc: 10 * units.KB, qi: 5 * units.KB, want: false},
		{name: "at thresholds exactly", portOcc: 60 * units.KB, qi: 30 * units.KB, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Queue 0 holds q_i, queue 1 the rest of the port's occupancy.
			v := &fakeView{b: 200 * units.KB, qlens: []units.ByteSize{tt.qi, tt.portOcc - tt.qi}}
			if got := m.MarkOnEnqueue(v, 0, 1500); got != tt.want {
				t.Errorf("MarkOnEnqueue = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTCNSojournMarking(t *testing.T) {
	c, err := NewTCN(240 * units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.MarkOnDequeue(0, 240*units.Microsecond) {
		t.Error("sojourn at threshold must not mark")
	}
	if !c.MarkOnDequeue(0, 241*units.Microsecond) {
		t.Error("sojourn above threshold must mark")
	}
	if _, err := NewTCN(0); err == nil {
		t.Error("zero threshold should fail")
	}
	if c.Name() != "TCN" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestTCNDrop(t *testing.T) {
	c, err := NewTCNDrop(240 * units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.DropOnDequeue(0, 100*units.Microsecond) {
		t.Error("short sojourn must not drop")
	}
	if !c.DropOnDequeue(0, 300*units.Microsecond) {
		t.Error("long sojourn must drop")
	}
	if _, err := NewTCNDrop(0); err == nil {
		t.Error("zero threshold should fail")
	}
	if c.Name() != "TCNDrop" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestMQECNValidation(t *testing.T) {
	q := []units.ByteSize{1500, 1500}
	if _, err := NewMQECN(0, units.Microsecond, q); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewMQECN(units.Gbps, 0, q); err == nil {
		t.Error("zero RTT·λ should fail")
	}
	if _, err := NewMQECN(units.Gbps, units.Microsecond, nil); err == nil {
		t.Error("no quantums should fail")
	}
	if _, err := NewMQECN(units.Gbps, units.Microsecond, []units.ByteSize{0}); err == nil {
		t.Error("zero quantum should fail")
	}
}

func TestMQECNThresholdBeforeAnySample(t *testing.T) {
	// With no round-time estimate, K_i is the standard threshold C·RTT·λ.
	m, err := NewMQECN(units.Gbps, 300*units.Microsecond, []units.ByteSize{1500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	want := units.BDP(units.Gbps, 300*units.Microsecond) // 37500B
	if got := m.QueueThreshold(0); got != want {
		t.Fatalf("K_0 = %d, want %d", got, want)
	}
}

func TestMQECNRoundEstimationScalesThreshold(t *testing.T) {
	m, err := NewMQECN(units.Gbps, 300*units.Microsecond, []units.ByteSize{1500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	// Two queues served alternately, each round taking 24µs
	// (two 1500B packets at 1Gbps). Feed several rounds.
	now := units.Time(0)
	for r := 0; r < 50; r++ {
		m.ObserveDequeue(nil, 0, 1500, now)
		now = now.Add(12 * units.Microsecond)
		m.ObserveDequeue(nil, 1, 1500, now)
		now = now.Add(12 * units.Microsecond)
	}
	if m.RoundTime() <= 0 {
		t.Fatal("round time not estimated")
	}
	// rate_i = 1500B / 24µs = 500Mbps → K_i = half the standard threshold.
	got := m.QueueThreshold(0)
	want := units.BDP(500*units.Mbps, 300*units.Microsecond)
	tol := want / 10
	if got < want-tol || got > want+tol {
		t.Fatalf("K_0 = %d, want ≈%d (tRound=%v)", got, want, m.RoundTime())
	}
	// Marking uses the scaled threshold.
	v := &fakeView{b: 200 * units.KB, qlens: []units.ByteSize{got + 1, 0}}
	if !m.MarkOnEnqueue(v, 0, 1500) {
		t.Error("queue above scaled K_i must mark")
	}
	if m.Name() != "MQ-ECN" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestMQECNSingleActiveQueueKeepsFullThreshold(t *testing.T) {
	// When one queue gets the whole link, its estimated rate is the link
	// rate, so K_i must stay at the standard threshold (work conservation
	// of the marking scheme).
	m, err := NewMQECN(units.Gbps, 300*units.Microsecond, []units.ByteSize{1500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	now := units.Time(0)
	for r := 0; r < 50; r++ {
		m.ObserveDequeue(nil, 0, 1500, now) // same queue: wraps every dequeue
		now = now.Add(12 * units.Microsecond)
	}
	want := units.BDP(units.Gbps, 300*units.Microsecond)
	if got := m.QueueThreshold(0); got != want {
		t.Fatalf("K_0 = %d, want full threshold %d", got, want)
	}
}
