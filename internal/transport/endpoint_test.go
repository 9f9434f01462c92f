package transport

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// wirePair builds two hosts connected back-to-back at 1Gbps with 125µs
// links — the smallest possible network for endpoint tests.
func wirePair(t *testing.T, s *sim.Simulator) (a, b *Endpoint) {
	t.Helper()
	ha := netsim.NewHost(0, nil)
	hb := netsim.NewHost(1, nil)
	mkNIC := func(dst netsim.Node) *netsim.Port {
		p, err := netsim.NewPort(s, netsim.PortConfig{
			Rate: units.Gbps, Buffer: units.MB, Queues: 1,
			Scheduler: sched.NewSPQ(), Admission: buffer.NewBestEffort(),
			Link: netsim.NewLink(s, 125*units.Microsecond, dst),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ha.SetEgress(mkNIC(hb))
	hb.SetEgress(mkNIC(ha))
	return NewEndpoint(s, ha), NewEndpoint(s, hb)
}

func TestEndpointLoopbackFlow(t *testing.T) {
	s := sim.New()
	a, b := wirePair(t, s)
	if a.Host().ID() != 0 || b.Host().ID() != 1 {
		t.Fatal("host ids wrong")
	}
	done := false
	snd, err := a.StartFlow(FlowConfig{
		Flow: 7, Dst: 1, Size: 300 * units.KB,
		OnComplete: func(units.Duration) { done = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if snd.Flow() != 7 {
		t.Fatalf("Flow() = %d", snd.Flow())
	}
	s.RunUntil(units.Time(units.Second))
	if !done {
		t.Fatal("flow did not complete over the wire pair")
	}
	if snd.SRTT() <= 0 {
		t.Fatal("no RTT estimate formed")
	}
}

func TestEndpointIgnoresStaleAcks(t *testing.T) {
	s := sim.New()
	a, _ := wirePair(t, s)
	// An ACK for a flow this endpoint never started must be dropped
	// silently (e.g. after sender teardown).
	a.Host().Receive(&packet.Packet{Kind: packet.Ack, Flow: 99, Ack: 1000, Size: packet.AckSize})
	// And an unknown-kind-free path: data auto-creates a receiver.
	a.Host().Receive(&packet.Packet{
		Kind: packet.Data, Flow: 50, Src: 1, Dst: 0, Seq: 0, Payload: 100, Size: 140,
	})
	s.RunUntil(units.Time(10 * units.Millisecond))
	// The auto-created receiver ACKed back through the wire.
	if len(a.receivers) != 1 {
		t.Fatalf("receivers = %d, want 1", len(a.receivers))
	}
}

func TestStopBeforeAnythingInFlight(t *testing.T) {
	s := sim.New()
	a, _ := wirePair(t, s)
	completions := 0
	snd, err := a.StartFlow(FlowConfig{
		Flow: 1, Dst: 1, Size: 0,
		OnComplete: func(units.Duration) { completions++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(units.Time(100 * units.Millisecond)) // drain the opening burst
	snd.Stop()
	s.RunUntil(units.Time(units.Second))
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	snd.Stop() // idempotent after completion
	if completions != 1 {
		t.Fatal("double Stop re-completed")
	}
}

func TestDCTCPLossPathsViaController(t *testing.T) {
	s := sim.New()
	d := NewDCTCP()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: d, ECN: true}, nil)
	snd.start()
	snd.nxt = snd.una + int64(30*snd.MSS())
	d.OnLoss(snd)
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatal("DCTCP loss should fall back to Reno halving")
	}
	d.OnTimeout(snd)
	if snd.Cwnd() != float64(snd.MSS()) {
		t.Fatal("DCTCP timeout should collapse to 1 MSS")
	}
}

func TestCubicTimeoutAndFriendlyRegion(t *testing.T) {
	s := sim.New()
	cb := NewCubic()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: cb}, nil)
	snd.start()
	snd.nxt = snd.una + int64(50*snd.MSS())
	snd.SetCwnd(float64(50 * snd.MSS()))
	cb.OnTimeout(snd)
	if snd.Cwnd() != float64(snd.MSS()) {
		t.Fatal("CUBIC timeout should collapse to 1 MSS")
	}
	if cb.hasEpoch {
		t.Fatal("timeout must reset the cubic epoch")
	}
	// Below-curve branch: window above the cubic target grows only gently.
	snd.SetCwnd(float64(100 * snd.MSS()))
	snd.SetSsthresh(float64(snd.MSS())) // force CA
	cb.wmax = float64(10 * snd.MSS())   // target far below cwnd
	cb.hasEpoch = false
	w0 := snd.Cwnd()
	cb.OnAck(snd, snd.MSS(), false)
	growth := snd.Cwnd() - w0
	if growth < 0 || growth > float64(snd.MSS()) {
		t.Fatalf("friendly-region growth = %v, want small and non-negative", growth)
	}
}

func TestDupAckWithNothingInFlightIgnored(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 1000}, nil)
	snd.start()
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 1000}) // completes
	// Post-completion duplicate of the final ACK must not panic or
	// retransmit.
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 1000})
	if snd.Stats().Retransmits != 0 {
		t.Fatal("phantom retransmission after completion")
	}
}

func TestSetCwndFloor(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: units.MB}, nil)
	snd.SetCwnd(-5)
	if snd.Cwnd() != float64(snd.MSS()) {
		t.Fatalf("cwnd floor = %v, want 1 MSS", snd.Cwnd())
	}
	snd.SetSsthresh(0)
	if snd.Ssthresh() != 2*float64(snd.MSS()) {
		t.Fatalf("ssthresh floor = %v, want 2 MSS", snd.Ssthresh())
	}
}
