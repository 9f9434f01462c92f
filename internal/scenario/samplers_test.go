package scenario

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

type devNull struct{}

func (devNull) Receive(*packet.Packet) {}

func newMeteredPort(t *testing.T, s *sim.Simulator) *netsim.Port {
	return newBufferedPort(t, s, 100*units.KB)
}

func newBufferedPort(t *testing.T, s *sim.Simulator, buf units.ByteSize) *netsim.Port {
	t.Helper()
	p, err := netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: buf, Queues: 2,
		Scheduler: sched.EqualDRR(2, 1500),
		Admission: buffer.NewBestEffort(),
		Link:      netsim.NewLink(s, 0, devNull{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestThroughputSamplerMeasuresRate(t *testing.T) {
	s := sim.New()
	p := newMeteredPort(t, s)
	ts, stop := newThroughputSampler(s, p, 10*units.Millisecond, nil, "")
	// Feed queue 0 one packet every serialization slot for 35ms: the port
	// stays busy, so each 10ms sample sees ~10ms/12µs packets.
	var feed func()
	feed = func() {
		if s.Now() >= units.Time(35*units.Millisecond) {
			return
		}
		p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 0})
		s.After(12*units.Microsecond, feed)
	}
	feed()
	s.RunUntil(units.Time(40 * units.Millisecond))
	stop()
	samples := ts.samples
	if len(samples) < 3 {
		t.Fatalf("samples = %d, want ≥ 3", len(samples))
	}
	// Steady-state samples run at ≈1Gbps on queue 0, 0 on queue 1.
	mid := samples[1]
	if mid.PerQueue[0] < 900*units.Mbps || mid.PerQueue[0] > units.Gbps {
		t.Fatalf("queue-0 rate = %v, want ≈1Gbps", mid.PerQueue[0])
	}
	if mid.PerQueue[1] != 0 {
		t.Fatalf("queue-1 rate = %v, want 0", mid.PerQueue[1])
	}
	if mid.Aggregate != mid.PerQueue[0] {
		t.Fatal("aggregate must sum the queues")
	}
	// Sample timestamps are one interval apart.
	if samples[1].At.Sub(samples[0].At) != 10*units.Millisecond {
		t.Fatal("sampling interval wrong")
	}
}

func TestThroughputSamplerStop(t *testing.T) {
	s := sim.New()
	p := newMeteredPort(t, s)
	ts, stop := newThroughputSampler(s, p, 10*units.Millisecond, nil, "")
	s.RunUntil(units.Time(25 * units.Millisecond))
	stop()
	n := len(ts.samples)
	s.RunUntil(units.Time(100 * units.Millisecond))
	if len(ts.samples) != n {
		t.Fatal("sampler kept sampling after Stop")
	}
}

func TestQueueTraceSamplesEveryTransition(t *testing.T) {
	s := sim.New()
	p := newMeteredPort(t, s)
	qt := newQueueTrace(p, 1, nil, "")
	for i := 0; i < 3; i++ {
		p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 1})
	}
	s.Run()
	// 3 enqueues + 3 dequeues.
	if got := len(qt.samples); got != 6 {
		t.Fatalf("samples = %d, want 6", got)
	}
	// First sample fires on the push (one packet buffered); the second on
	// the immediate pop into the transmitter (queue drained again).
	if qt.samples[0].PerQueue[1] != 1500 {
		t.Fatalf("first sample queue-1 = %v, want 1500", qt.samples[0].PerQueue[1])
	}
	if qt.samples[1].PerQueue[1] != 0 {
		t.Fatalf("second sample queue-1 = %v, want 0", qt.samples[1].PerQueue[1])
	}
}

func TestQueueTraceStride(t *testing.T) {
	s := sim.New()
	p := newMeteredPort(t, s)
	qt := newQueueTrace(p, 4, nil, "")
	for i := 0; i < 16; i++ {
		p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 0})
	}
	s.Run()
	// 32 transitions decimated by 4 → 8 samples.
	if got := len(qt.samples); got != 8 {
		t.Fatalf("samples = %d, want 8", got)
	}
	// Stride < 1 falls back to 1.
	qt2 := newQueueTrace(p, 0, nil, "")
	p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 0})
	s.Run()
	if len(qt2.samples) == 0 {
		t.Fatal("zero-stride trace recorded nothing")
	}
}

// TestPublishCounters: a static run's trace_events_total series read the
// recorder's per-kind counts, whatever the recorder's filter keeps.
func TestPublishCounters(t *testing.T) {
	s := sim.New()
	p := newBufferedPort(t, s, 1500)
	r, err := metrics.NewEventRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Only(netsim.EvDrop).Attach(p)
	reg := telemetry.NewRegistry()
	ts, _ := newThroughputSampler(s, p, units.Millisecond, nil, "p")
	staticSeries(reg, ts, nil, r)
	for i := 0; i < 3; i++ {
		p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 0})
	}
	if v, ok := reg.Value(`trace_events_total{kind="enqueue"}`); !ok || v != 2 {
		t.Fatalf("enqueue counter = %d,%v, want 2", v, ok)
	}
	if v, ok := reg.Value(`trace_events_total{kind="drop"}`); !ok || v != 1 {
		t.Fatalf("drop counter = %d,%v, want 1", v, ok)
	}
}
