package transport

import (
	"math"
	"reflect"
	"testing"

	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// newTestSender builds a sender whose emissions go to sink.
func newTestSender(t *testing.T, s *sim.Simulator, cfg FlowConfig, sink func(*packet.Packet)) *Sender {
	t.Helper()
	if sink == nil {
		sink = func(*packet.Packet) {}
	}
	if cfg.Dst == 0 {
		cfg.Dst = 1
	}
	snd, err := newSender(s, &packet.Pool{}, 0, sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snd
}

// newTestReceiver is a receiver at host me, alone on an endpoint that keeps
// its flows in flows and hands every ACK to emit.
func newTestReceiver(me int, emit func(*packet.Packet), flows *FlowTable) *Receiver {
	return &Receiver{ep: &Endpoint{host: netsim.NewHost(me, nil), nic: sendFunc(emit), pkts: &packet.Pool{}, flows: flows}}
}

func TestSenderConfigValidation(t *testing.T) {
	s := sim.New()
	sink := func(*packet.Packet) {}
	if _, err := newSender(s, &packet.Pool{}, 0, sink, FlowConfig{Dst: 0}); err == nil {
		t.Error("self-loop flow should fail")
	}
	if _, err := newSender(s, &packet.Pool{}, 0, sink, FlowConfig{Dst: 1, Size: -1}); err == nil {
		t.Error("negative size should fail")
	}
	if _, err := newSender(s, &packet.Pool{}, 0, sink, FlowConfig{Dst: 1, MSS: -5}); err == nil {
		t.Error("negative MSS should fail")
	}
	if _, err := newSender(s, &packet.Pool{}, 0, sink, FlowConfig{Dst: 1, MinRTO: -units.Millisecond}); err == nil {
		t.Error("negative minimum RTO should fail")
	}
}

func TestInitialWindowBurst(t *testing.T) {
	s := sim.New()
	var sent []*packet.Packet
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.KB},
		func(p *packet.Packet) { sent = append(sent, p) })
	snd.start()
	if len(sent) != InitialWindow {
		t.Fatalf("initial burst = %d packets, want %d (RFC 6928)", len(sent), InitialWindow)
	}
	for i, p := range sent {
		if p.Seq != int64(i)*int64(DefaultMSS) {
			t.Fatalf("packet %d seq = %d", i, p.Seq)
		}
		if units.ByteSize(p.Payload) != DefaultMSS {
			t.Fatalf("packet %d payload = %d", i, p.Payload)
		}
		if p.Size != DefaultMSS+HeaderSize {
			t.Fatalf("packet %d size = %d", i, p.Size)
		}
	}
}

func TestRenoSlowStartDoublesPerRTT(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 10 * units.MB}, nil)
	snd.start()
	w0 := snd.Cwnd()
	// Ack the whole initial window: slow start grows cwnd by acked bytes.
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: snd.Nxt()})
	if got, want := snd.Cwnd(), 2*w0; math.Abs(got-want) > 1 {
		t.Fatalf("cwnd after full-window ack = %v, want %v", got, want)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB}, nil)
	snd.start()
	snd.SetSsthresh(float64(4 * snd.MSS()))
	snd.SetCwnd(float64(10 * snd.MSS())) // above ssthresh → CA
	w0 := snd.Cwnd()
	// One full window of ACKs should add about one MSS.
	var ackedTotal units.ByteSize
	for ackedTotal < units.ByteSize(w0) {
		snd.ctrl.OnAck(snd, snd.MSS(), false)
		ackedTotal += snd.MSS()
	}
	growth := snd.Cwnd() - w0
	if growth < 0.8*float64(snd.MSS()) || growth > 1.3*float64(snd.MSS()) {
		t.Fatalf("CA growth per RTT = %.0fB, want ≈1 MSS (%d)", growth, snd.MSS())
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	s := sim.New()
	var sent []*packet.Packet
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 1 * units.MB},
		func(p *packet.Packet) { sent = append(sent, p) })
	snd.start()
	before := len(sent)
	cwnd0 := snd.Cwnd()
	// Three duplicate ACKs at una=0.
	for i := 0; i < 3; i++ {
		snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 0})
	}
	if snd.Stats().FastRecovers != 1 {
		t.Fatalf("fast recovers = %d, want 1", snd.Stats().FastRecovers)
	}
	if snd.Stats().Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", snd.Stats().Retransmits)
	}
	rtx := sent[before]
	if rtx.Seq != 0 {
		t.Fatalf("retransmitted seq = %d, want 0", rtx.Seq)
	}
	if snd.Ssthresh() >= cwnd0 {
		t.Fatalf("ssthresh = %v not reduced from cwnd %v", snd.Ssthresh(), cwnd0)
	}
}

func TestNewRenoPartialAckRetransmitsNextHole(t *testing.T) {
	s := sim.New()
	var sent []*packet.Packet
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 1 * units.MB},
		func(p *packet.Packet) { sent = append(sent, p) })
	snd.start()
	for i := 0; i < 3; i++ {
		snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 0})
	}
	// Partial ACK: first segment recovered, second still missing.
	n := len(sent)
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: int64(DefaultMSS)})
	if snd.Stats().Retransmits != 2 {
		t.Fatalf("retransmits = %d, want 2 (NewReno partial-ack rule)", snd.Stats().Retransmits)
	}
	if got := sent[n].Seq; got != int64(DefaultMSS) {
		t.Fatalf("partial-ack retransmission seq = %d, want %d", got, DefaultMSS)
	}
	// Full ACK exits recovery and deflates to ssthresh.
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: snd.recover})
	if snd.inRecovery {
		t.Fatal("full ACK should end recovery")
	}
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatalf("cwnd after recovery = %v, want ssthresh %v", snd.Cwnd(), snd.Ssthresh())
	}
}

func TestRTOCollapsesWindowAndBacksOff(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 1 * units.MB, MinRTO: 10 * units.Millisecond}, nil)
	snd.start()
	// Let the RTO timer fire repeatedly (no ACKs ever arrive).
	s.RunUntil(units.Time(2 * units.Minute))
	if snd.Stats().Timeouts == 0 {
		t.Fatal("expected RTO timeouts with no ACKs")
	}
	if got := snd.Cwnd(); got != float64(snd.MSS()) {
		t.Fatalf("cwnd after RTO = %v, want 1 MSS", got)
	}
	// Exponential backoff must be capped.
	if snd.rto > DefaultMinRTO<<maxRTOBackoff {
		t.Fatalf("rto = %v beyond backoff cap", snd.rto)
	}
}

func TestRTTEstimator(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 10 * units.MB, MinRTO: units.Millisecond}, nil)
	snd.start()
	snd.updateRTT(500 * units.Microsecond)
	if snd.srtt != 500*units.Microsecond {
		t.Fatalf("first srtt = %v", snd.srtt)
	}
	if snd.rttvar != 250*units.Microsecond {
		t.Fatalf("first rttvar = %v", snd.rttvar)
	}
	// RFC 6298: rto = srtt + 4·rttvar, floored at minRTO.
	if want := 1500 * units.Microsecond; snd.rto != want {
		t.Fatalf("rto = %v, want %v", snd.rto, want)
	}
	snd.updateRTT(500 * units.Microsecond)
	if snd.srtt != 500*units.Microsecond {
		t.Fatalf("steady srtt = %v", snd.srtt)
	}
	// Floor: tiny RTTs must not push RTO below minRTO.
	for i := 0; i < 20; i++ {
		snd.updateRTT(10 * units.Microsecond)
	}
	if snd.rto < units.Millisecond {
		t.Fatalf("rto = %v below the minRTO floor", snd.rto)
	}
}

func TestKarnNoSampleFromRetransmission(t *testing.T) {
	s := sim.New()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: units.MB}, nil)
	snd.start()
	if snd.sampleSeq != 0 {
		t.Fatalf("sampleSeq = %d, want 0 (first packet sampled)", snd.sampleSeq)
	}
	snd.transmit(0, DefaultMSS, true) // retransmission of the sampled seq
	if snd.sampleSeq != -1 {
		t.Fatal("Karn: retransmitting the sampled segment must cancel the sample")
	}
}

func TestStopUnboundedFlow(t *testing.T) {
	s := sim.New()
	done := false
	var fct units.Duration
	snd := newTestSender(t, s, FlowConfig{
		Flow: 1, Dst: 1, Size: 0, // unbounded
		OnComplete: func(d units.Duration) { done = true; fct = d },
	}, nil)
	snd.start()
	sent := snd.Nxt()
	if sent == 0 {
		t.Fatal("unbounded flow sent nothing")
	}
	snd.Stop()
	if done {
		t.Fatal("flow cannot complete while data is in flight")
	}
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: sent})
	if !done {
		t.Fatal("acking all sent bytes must complete a stopped flow")
	}
	_ = fct
	if !snd.Done() {
		t.Fatal("Done() should report true")
	}
}

func TestCompletionFiresOnceWithFCT(t *testing.T) {
	s := sim.New()
	calls := 0
	snd := newTestSender(t, s, FlowConfig{
		Flow: 1, Dst: 1, Size: 1000,
		OnComplete: func(d units.Duration) { calls++ },
	}, nil)
	snd.start()
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 1000})
	snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 1000}) // dup after done
	if calls != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", calls)
	}
}

func TestClassOfOverridesClass(t *testing.T) {
	s := sim.New()
	var classes []int
	snd := newTestSender(t, s, FlowConfig{
		Flow: 1, Dst: 1, Size: 100 * units.KB, Class: 3,
		ClassOf: func(seq int64) int {
			if seq < 20000 {
				return 0
			}
			return 3
		},
	}, func(p *packet.Packet) { classes = append(classes, p.Class) })
	snd.start()
	// Ack everything progressively to flush the flow.
	for !snd.Done() {
		snd.onAck(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: snd.Nxt()})
	}
	if classes[0] != 0 {
		t.Fatal("early bytes should use the high-priority class")
	}
	last := classes[len(classes)-1]
	if last != 3 {
		t.Fatalf("late bytes class = %d, want 3 (demoted)", last)
	}
}

func TestCubicDecreaseFactor(t *testing.T) {
	s := sim.New()
	cb := NewCubic()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: cb}, nil)
	snd.start()
	snd.SetCwnd(float64(100 * snd.MSS()))
	snd.nxt = snd.una + int64(100*snd.MSS()) // pretend a full window in flight
	w0 := snd.Cwnd()
	cb.OnLoss(snd)
	want := 0.7 * w0
	if math.Abs(snd.Cwnd()-want) > 1 {
		t.Fatalf("CUBIC loss window = %v, want β·W = %v", snd.Cwnd(), want)
	}
}

func TestCubicGrowsTowardWmax(t *testing.T) {
	s := sim.New()
	cb := NewCubic()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: cb}, nil)
	snd.start()
	snd.SetCwnd(float64(100 * snd.MSS()))
	snd.nxt = snd.una + int64(100*snd.MSS())
	cb.OnLoss(snd)
	snd.SetSsthresh(snd.Cwnd()) // enter CA at the reduced window
	snd.stopRTO()               // pure window-math test: no retransmissions
	wLoss := snd.Cwnd()
	// Feed ACKs over simulated time; the window must climb back toward
	// W_max following the cubic curve.
	for i := 0; i < 200; i++ {
		s.At(s.Now().Add(units.Millisecond), func() {
			cb.OnAck(snd, snd.MSS(), false)
		})
		s.Run()
	}
	if snd.Cwnd() <= wLoss {
		t.Fatalf("CUBIC window did not grow: %v ≤ %v", snd.Cwnd(), wLoss)
	}
	if snd.Cwnd() > 1.2*cb.wmax {
		t.Fatalf("CUBIC window %v overshot W_max %v too fast", snd.Cwnd(), cb.wmax)
	}
}

func TestDCTCPAlphaTracksMarkFraction(t *testing.T) {
	s := sim.New()
	d := NewDCTCP()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: d, ECN: true}, nil)
	snd.start()
	snd.SetSsthresh(snd.Cwnd()) // force CA so growth is mild
	// No marks for many windows: α must decay toward 0.
	for i := 0; i < 200; i++ {
		snd.una += int64(snd.MSS())
		snd.nxt = snd.una + int64(snd.MSS())
		d.OnAck(snd, snd.MSS(), false)
	}
	if d.alpha > 0.01 {
		t.Fatalf("α = %v after unmarked windows, want ≈0", d.alpha)
	}
	// All-marked windows: α must climb toward 1.
	for i := 0; i < 500; i++ {
		snd.una += int64(snd.MSS())
		snd.nxt = snd.una + int64(snd.MSS())
		d.OnAck(snd, snd.MSS(), true)
	}
	if d.alpha < 0.9 {
		t.Fatalf("α = %v after fully-marked windows, want ≈1", d.alpha)
	}
}

func TestDCTCPReducesOncePerWindow(t *testing.T) {
	s := sim.New()
	d := NewDCTCP()
	snd := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Size: 100 * units.MB, Ctrl: d, ECN: true}, nil)
	snd.start()
	snd.SetCwnd(float64(50 * snd.MSS()))
	snd.SetSsthresh(snd.Cwnd())
	snd.nxt = snd.una + int64(50*snd.MSS())
	w0 := snd.Cwnd()
	// Two echoes within the same window: only one reduction.
	d.OnAck(snd, snd.MSS(), true)
	w1 := snd.Cwnd()
	d.OnAck(snd, snd.MSS(), true)
	w2 := snd.Cwnd()
	if w1 >= w0 {
		t.Fatalf("first echo did not reduce: %v → %v", w0, w1)
	}
	// Second echo in the same window: CA growth only (< one MSS change).
	if w1-w2 > float64(snd.MSS()) {
		t.Fatalf("second echo reduced again within one window: %v → %v", w1, w2)
	}
}

// TestControllerTable: every row has its own name and builds a fresh
// instance of its own type, the empty name is the sender default, and an
// unknown name's error lists the table.
func TestControllerTable(t *testing.T) {
	want := map[string]Controller{
		"reno": NewReno(), "cubic": NewCubic(), "dctcp": NewDCTCP(),
		"ecn-reno": NewECNReno(), "timely": NewTimely(),
	}
	if len(algorithms) != len(want) {
		t.Fatalf("%d rows, want %d", len(algorithms), len(want))
	}
	for _, a := range algorithms {
		got, err := LookupAlgorithm(a.Name)
		if err != nil || got.Name != a.Name {
			t.Fatalf("%s resolves to %q, %v", a.Name, got.Name, err)
		}
		c1, c2 := got.New(), got.New()
		if !reflect.DeepEqual(c1, want[a.Name]) {
			t.Errorf("%s builds %#v, want %#v", a.Name, c1, want[a.Name])
		}
		if _, stateless := c1.(*Reno); !stateless && c1 == c2 {
			t.Errorf("%s: two flows share one controller", a.Name)
		}
	}
	if def, err := LookupAlgorithm(""); err != nil || def.Name != "reno" {
		t.Errorf("the empty name resolves to %q, %v; want the sender default reno", def.Name, err)
	}
	if _, err := LookupAlgorithm("quic"); err == nil ||
		err.Error() != `unknown controller "quic" (known: reno, cubic, dctcp, ecn-reno, timely)` {
		t.Errorf("unknown name: %v", err)
	}
}

func TestReceiverInOrderAndOutOfOrder(t *testing.T) {
	var acks []*packet.Packet
	r := newTestReceiver(2, func(p *packet.Packet) { acks = append(acks, p) }, new(FlowTable))
	seg := func(seq int64, n units.ByteSize, ecn packet.ECN) *packet.Packet {
		return &packet.Packet{Kind: packet.Data, Flow: 1, Src: 0, Dst: 2, Seq: seq, Payload: int32(n), Size: n + HeaderSize, ECN: ecn}
	}
	r.onData(seg(0, 1000, packet.ECT))
	if acks[0].Ack != 1000 {
		t.Fatalf("ack = %d, want 1000", acks[0].Ack)
	}
	// Gap: segment 2000..3000 before 1000..2000 → dup ACK at 1000.
	r.onData(seg(2000, 1000, packet.ECT))
	if acks[1].Ack != 1000 {
		t.Fatalf("ooo ack = %d, want 1000 (dup)", acks[1].Ack)
	}
	// Fill the hole: cumulative ACK jumps over the buffered segment.
	r.onData(seg(1000, 1000, packet.ECT))
	if acks[2].Ack != 3000 {
		t.Fatalf("ack after fill = %d, want 3000", acks[2].Ack)
	}
	if r.Received() != 3000 {
		t.Fatalf("received = %d", r.Received())
	}
}

func TestReceiverEchoesCE(t *testing.T) {
	var acks []*packet.Packet
	r := newTestReceiver(2, func(p *packet.Packet) { acks = append(acks, p) }, new(FlowTable))
	p := &packet.Packet{Kind: packet.Data, Flow: 1, Src: 0, Dst: 2, Seq: 0, Payload: 1000, Size: 1040, ECN: packet.ECT}
	p.Mark()
	r.onData(p)
	if !acks[0].Echo {
		t.Fatal("CE data must produce an echoing ACK")
	}
	r.onData(&packet.Packet{Kind: packet.Data, Flow: 1, Src: 0, Dst: 2, Seq: 1000, Payload: 1000, Size: 1040, ECN: packet.ECT})
	if acks[1].Echo {
		t.Fatal("unmarked data must not echo")
	}
}

func TestReceiverDuplicateSegment(t *testing.T) {
	var acks []*packet.Packet
	r := newTestReceiver(2, func(p *packet.Packet) { acks = append(acks, p) }, new(FlowTable))
	seg := &packet.Packet{Kind: packet.Data, Flow: 1, Src: 0, Dst: 2, Seq: 0, Payload: 1000, Size: 1040}
	r.onData(seg)
	r.onData(seg) // retransmitted duplicate
	if acks[1].Ack != 1000 {
		t.Fatalf("dup segment ack = %d, want 1000", acks[1].Ack)
	}
	if r.Received() != 1000 {
		t.Fatalf("in-order received = %d, want 1000 (duplicates don't advance)", r.Received())
	}
}
