package transport

import (
	"testing"

	"dynaq/internal/sim"
	"dynaq/internal/units"
)

func TestTimelyRampsWithoutRTT(t *testing.T) {
	s := sim.New()
	tm := NewTimely()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: tm}, nil)
	snd.start()
	w0 := snd.Cwnd()
	tm.OnAck(snd, snd.MSS(), false)
	if snd.Cwnd() <= w0 {
		t.Fatal("no ramp before the first RTT sample")
	}
}

func TestTimelyBacksOffAboveTHigh(t *testing.T) {
	s := sim.New()
	tm := NewTimely()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: tm}, nil)
	snd.start()
	snd.SetCwnd(float64(50 * snd.MSS()))
	// Establish a low RTT floor, then a deep-queue RTT sample.
	snd.updateRTT(100 * units.Microsecond)
	tm.OnAck(snd, snd.MSS(), false) // records minRTT ≈ 100µs
	for i := 0; i < 30; i++ {
		snd.updateRTT(400 * units.Microsecond) // > 2·minRTT
	}
	w := snd.Cwnd()
	for i := 0; i < 50; i++ {
		tm.OnAck(snd, snd.MSS(), false)
	}
	if snd.Cwnd() >= w {
		t.Fatalf("window did not back off above T_high: %v → %v", w, snd.Cwnd())
	}
}

func TestTimelyGrowsBelowTLow(t *testing.T) {
	s := sim.New()
	tm := NewTimely()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: tm}, nil)
	snd.start()
	snd.SetCwnd(float64(20 * snd.MSS()))
	snd.updateRTT(500 * units.Microsecond)
	tm.OnAck(snd, snd.MSS(), false)
	// Stable RTT at the floor: far from congestion → additive growth.
	w := snd.Cwnd()
	for i := 0; i < 20; i++ {
		tm.OnAck(snd, snd.MSS(), false)
	}
	if snd.Cwnd() <= w {
		t.Fatalf("window did not grow below T_low: %v → %v", w, snd.Cwnd())
	}
}

func TestTimelyLossFallback(t *testing.T) {
	s := sim.New()
	tm := NewTimely()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: tm}, nil)
	snd.start()
	snd.nxt = snd.una + int64(40*snd.MSS())
	tm.OnLoss(snd)
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatal("loss should halve into ssthresh")
	}
	tm.OnTimeout(snd)
	if snd.Cwnd() != float64(snd.MSS()) {
		t.Fatal("timeout should collapse to one MSS")
	}
}
