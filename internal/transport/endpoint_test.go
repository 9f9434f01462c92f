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
	if _, rcvs := a.flows.Live(); rcvs != 1 {
		t.Fatalf("receivers = %d, want 1", rcvs)
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

// TestStartFlowRefusesIDsTheTableCannotIndex: a network's endpoints share one
// flow table, so StartFlow refuses an id another flow of the network took,
// at any host and after that flow finished, and an id outside [1,
// MaxFlowID]. A refused start takes no slot. Packets for ids no sender has
// are answered as before: data by a new receiver, an ACK not at all.
func TestStartFlowRefusesIDsTheTableCannotIndex(t *testing.T) {
	n := newTableNet(false)
	start := func(src int, cfg FlowConfig) error {
		cfg.MinRTO = units.Millisecond
		return n.start(src, cfg)
	}
	if err := start(0, FlowConfig{Flow: 1, Dst: 2, Size: 500}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src int
		cfg FlowConfig
	}{
		{1, FlowConfig{Flow: 1, Dst: 2, Size: 500}}, // one id from two sources to one host
		{1, FlowConfig{Flow: 1, Dst: 3, Size: 500}},
		{0, FlowConfig{Flow: 0, Dst: 1, Size: 500}},
		{0, FlowConfig{Flow: MaxFlowID + 1, Dst: 1, Size: 500}},
		{0, FlowConfig{Flow: 2, Dst: 0, Size: 500}}, // a self-loop, refused by the sender
	} {
		if err := start(tc.src, tc.cfg); err == nil {
			t.Errorf("flow %d from host %d to %d was accepted", tc.cfg.Flow, tc.src, tc.cfg.Dst)
		}
	}
	if err := start(0, FlowConfig{Flow: 2, Dst: 1, Size: 500}); err != nil {
		t.Fatalf("the refused self-loop took flow 2's slot: %v", err)
	}
	if err := start(3, FlowConfig{Flow: MaxFlowID, Dst: 1, Size: 500}); err != nil {
		t.Fatalf("the largest flow id is refused: %v", err)
	}
	for len(n.out) > 0 { // deliver until all three flows finish
		p := n.out[0]
		n.out = n.out[1:]
		n.deliver(p)
	}
	if len(n.senders) != 3 {
		t.Fatalf("%d flows started, want 3", len(n.senders))
	}
	for id, snd := range n.senders {
		if !snd.Done() {
			t.Fatalf("flow %d did not finish", id)
		}
	}
	if err := start(3, FlowConfig{Flow: 2, Dst: 0, Size: 500}); err == nil {
		t.Error("flow 2's id was accepted again after it finished")
	}

	// Data for an id no flow has makes a receiver, which answers it; data
	// outside the table's ids, and an ACK for an id no sender has, go
	// unanswered.
	n.deliver(packet.Packet{Kind: packet.Data, Flow: 50, Src: 1, Dst: 0, Payload: 100, Size: 140})
	if len(n.out) != 1 || n.out[0].Kind != packet.Ack || n.out[0].Ack != 100 || n.out[0].Dst != 1 {
		t.Fatalf("data for a new id drew %+v, want one ACK of 100 bytes to host 1", n.out)
	}
	n.out = n.out[:0]
	for _, p := range []packet.Packet{
		{Kind: packet.Data, Flow: 0, Src: 1, Dst: 0, Payload: 100, Size: 140},
		{Kind: packet.Data, Flow: MaxFlowID + 1, Src: 1, Dst: 0, Payload: 100, Size: 140},
		{Kind: packet.Ack, Flow: 51, Src: 1, Dst: 0, Ack: 100, Size: packet.AckSize},
		{Kind: packet.Ack, Flow: 1 << 20, Src: 1, Dst: 0, Ack: 100, Size: packet.AckSize},
	} {
		n.deliver(p)
	}
	if len(n.out) != 0 {
		t.Fatalf("packets no sender can have sent drew %+v", n.out)
	}
	if snd, rcv := n.flows.Live(); snd != 0 || rcv != 1 {
		t.Fatalf("the table holds %d live senders and %d live receivers, want 0 and 1 (flow 50's)", snd, rcv)
	}
}

// TestFinishedSlabsLeaveTheTable: once every flow of a slab has finished,
// the slab leaves the table and only its tombstones stay, which answer late
// duplicates with the ACK the receiver last sent; the senders StartFlow
// returned stay valid.
func TestFinishedSlabsLeaveTheTable(t *testing.T) {
	n := newTableNet(false)
	const flows = 3*slabFlows - 1 // the third slab keeps a free id
	var firstData []packet.Packet
	for id := packet.FlowID(1); id <= flows; id++ {
		if err := n.start(int(id)%tableHosts, FlowConfig{Flow: id, Dst: (int(id) + 1) % tableHosts,
			Size: units.ByteSize(id) * 100, MinRTO: units.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	for len(n.out) > 0 {
		p := n.out[0]
		n.out = n.out[1:]
		if p.Kind == packet.Data && p.Seq == 0 {
			firstData = append(firstData, p)
		}
		n.deliver(p)
	}
	if snd, rcv := n.flows.Live(); snd != 0 || rcv != 0 {
		t.Fatalf("%d senders and %d receivers live after every flow finished", snd, rcv)
	}
	for b := 0; b < 3; b++ {
		if left := n.flows.blocks[b].slab == nil; left != (b < 2) {
			t.Errorf("slab %d left the table: %v, want %v", b, left, b < 2)
		}
	}
	for _, p := range firstData {
		n.deliver(p)
		a := n.out[len(n.out)-1]
		if a.Kind != packet.Ack || a.Flow != p.Flow || a.Ack != int64(p.Flow)*100 || a.Dst != p.Src || a.Src != p.Dst {
			t.Fatalf("a late duplicate of flow %d drew %+v, want the final ACK of %d bytes", p.Flow, a, int64(p.Flow)*100)
		}
	}
	if len(n.senders) != flows || len(firstData) != flows {
		t.Fatalf("%d flows started and %d first segments seen, want %d", len(n.senders), len(firstData), flows)
	}
	for id, snd := range n.senders {
		snd.Stop() // a no-op on a finished flow
		if !snd.Done() || snd.Flow() != id || snd.Una() != int64(id)*100 {
			t.Fatalf("flow %d's sender reads done %v, flow %d, una %d", id, snd.Done(), snd.Flow(), snd.Una())
		}
	}
}

// TestPooledEndpointAllocatesOnce pins a network endpoint's cost to the
// Endpoint itself: its host is its nic and it is its host's handler, so
// neither binds a method value.
func TestPooledEndpointAllocatesOnce(t *testing.T) {
	s, host, pkts, flows := sim.New(), netsim.NewHost(0, nil), new(packet.Pool), new(FlowTable)
	if n := testing.AllocsPerRun(100, func() { NewPooledEndpoint(s, host, pkts, flows) }); n != 1 {
		t.Errorf("NewPooledEndpoint makes %v allocations, want 1", n)
	}
}
