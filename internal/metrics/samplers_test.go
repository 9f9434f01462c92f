package metrics

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

type devNull struct{}

func (devNull) Receive(*packet.Packet) {}

func newMeteredPort(t *testing.T, s *sim.Simulator) *netsim.Port {
	t.Helper()
	p, err := netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: 100 * units.KB, Queues: 2,
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
	ts := NewThroughputSampler(s, p, 10*units.Millisecond)
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
	ts.Stop()
	samples := ts.Samples()
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
	ts := NewThroughputSampler(s, p, 10*units.Millisecond)
	s.RunUntil(units.Time(25 * units.Millisecond))
	ts.Stop()
	n := len(ts.Samples())
	s.RunUntil(units.Time(100 * units.Millisecond))
	if len(ts.Samples()) != n {
		t.Fatal("sampler kept sampling after Stop")
	}
}

func TestQueueTraceSamplesEveryTransition(t *testing.T) {
	s := sim.New()
	p := newMeteredPort(t, s)
	qt := NewQueueTrace(p, 1)
	for i := 0; i < 3; i++ {
		p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 1})
	}
	s.Run()
	// 3 enqueues + 3 dequeues.
	if got := len(qt.Samples()); got != 6 {
		t.Fatalf("samples = %d, want 6", got)
	}
	// First sample fires on the push (one packet buffered); the second on
	// the immediate pop into the transmitter (queue drained again).
	if qt.Samples()[0].PerQueue[1] != 1500 {
		t.Fatalf("first sample queue-1 = %v, want 1500", qt.Samples()[0].PerQueue[1])
	}
	if qt.Samples()[1].PerQueue[1] != 0 {
		t.Fatalf("second sample queue-1 = %v, want 0", qt.Samples()[1].PerQueue[1])
	}
}

func TestQueueTraceStride(t *testing.T) {
	s := sim.New()
	p := newMeteredPort(t, s)
	qt := NewQueueTrace(p, 4)
	for i := 0; i < 16; i++ {
		p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 0})
	}
	s.Run()
	// 32 transitions decimated by 4 → 8 samples.
	if got := len(qt.Samples()); got != 8 {
		t.Fatalf("samples = %d, want 8", got)
	}
	// Stride < 1 falls back to 1.
	qt2 := NewQueueTrace(p, 0)
	p.Enqueue(&packet.Packet{Kind: packet.Data, Size: 1500, Class: 0})
	s.Run()
	if len(qt2.Samples()) == 0 {
		t.Fatal("zero-stride trace recorded nothing")
	}
}
