package transport

import (
	"testing"

	"dynaq/internal/sim"
	"dynaq/internal/units"
)

func TestECNRenoHalvesOncePerWindow(t *testing.T) {
	s := sim.New()
	e := NewECNReno()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: e, ECN: true}, nil)
	snd.start()
	snd.SetCwnd(float64(40 * snd.MSS()))
	snd.SetSsthresh(snd.Cwnd())
	snd.nxt = snd.una + int64(40*snd.MSS())
	w0 := snd.Cwnd()
	e.OnAck(snd, snd.MSS(), true)
	w1 := snd.Cwnd()
	if w1 > w0/2+1 || w1 < w0/2-1 {
		t.Fatalf("cwnd after echo = %v, want w0/2 = %v", w1, w0/2)
	}
	// Second echo in the same window: no further decrease.
	e.OnAck(snd, snd.MSS(), true)
	if snd.Cwnd() < w1 {
		t.Fatalf("second echo reduced again within the window: %v → %v", w1, snd.Cwnd())
	}
	// After the window passes, a new echo halves again.
	snd.una = e.cwrEnd
	e.OnAck(snd, snd.MSS(), false) // clears CWR
	w2 := snd.Cwnd()
	e.OnAck(snd, snd.MSS(), true)
	if snd.Cwnd() >= w2 {
		t.Fatalf("post-window echo did not reduce: %v → %v", w2, snd.Cwnd())
	}
}

func TestECNRenoGrowsWithoutEcho(t *testing.T) {
	s := sim.New()
	e := NewECNReno()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: e, ECN: true}, nil)
	snd.start()
	w0 := snd.Cwnd()
	e.OnAck(snd, snd.MSS(), false) // slow start
	if snd.Cwnd() <= w0 {
		t.Fatal("no growth in slow start")
	}
}

func TestECNRenoLossHandling(t *testing.T) {
	s := sim.New()
	e := NewECNReno()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: e, ECN: true}, nil)
	snd.start()
	snd.nxt = snd.una + int64(20*snd.MSS())
	e.OnLoss(snd)
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatal("loss should set cwnd to ssthresh")
	}
	e.OnTimeout(snd)
	if snd.Cwnd() != float64(snd.MSS()) {
		t.Fatal("timeout should collapse to 1 MSS")
	}
}
