package transport

import (
	"testing"

	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

func seg(seq int64, n units.ByteSize, ecn packet.ECN) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Flow: 1, Src: 0, Dst: 2,
		Seq: seq, Payload: n, Size: n + HeaderSize, ECN: ecn}
}

func TestDelayedAcksCoalesceInOrder(t *testing.T) {
	s := sim.New()
	var acks []*packet.Packet
	r := newReceiver(s, &packet.Pool{}, 2, func(p *packet.Packet) { acks = append(acks, p) }, 1)
	r.setDelayedAcks(2, 500*units.Microsecond)
	r.onData(seg(0, 1000, packet.ECT))
	if len(acks) != 0 {
		t.Fatal("first in-order segment must be held")
	}
	r.onData(seg(1000, 1000, packet.ECT))
	if len(acks) != 1 {
		t.Fatalf("acks = %d, want 1 (coalesced pair)", len(acks))
	}
	if acks[0].Ack != 2000 {
		t.Fatalf("coalesced ack = %d, want 2000", acks[0].Ack)
	}
	if r.AcksSent() != 1 {
		t.Fatalf("AcksSent = %d", r.AcksSent())
	}
}

func TestDelayedAckTimerFlushes(t *testing.T) {
	s := sim.New()
	var acks []*packet.Packet
	r := newReceiver(s, &packet.Pool{}, 2, func(p *packet.Packet) { acks = append(acks, p) }, 1)
	r.setDelayedAcks(4, 500*units.Microsecond)
	r.onData(seg(0, 1000, packet.ECT))
	if len(acks) != 0 {
		t.Fatal("segment should be held for the timer")
	}
	s.Run() // fires the delayed-ACK timer
	if len(acks) != 1 || acks[0].Ack != 1000 {
		t.Fatalf("timer flush produced %d acks", len(acks))
	}
	if s.Now() != units.Time(500*units.Microsecond) {
		t.Fatalf("flushed at %v, want 500µs", s.Now())
	}
}

func TestDelayedAcksImmediateOnOutOfOrder(t *testing.T) {
	s := sim.New()
	var acks []*packet.Packet
	r := newReceiver(s, &packet.Pool{}, 2, func(p *packet.Packet) { acks = append(acks, p) }, 1)
	r.setDelayedAcks(4, 500*units.Microsecond)
	// A gap: segment at 2000 while expecting 0 → immediate duplicate ACK
	// so the sender's fast retransmit still triggers.
	r.onData(seg(2000, 1000, packet.ECT))
	if len(acks) != 1 || acks[0].Ack != 0 {
		t.Fatalf("out-of-order arrival must ack immediately: %d acks", len(acks))
	}
	// Filling the gap is also not "in order" (seq 0 == rcvNxt is in
	// order; use a second gap fill): deliver 0..1000, which IS in order,
	// then 1000..2000 in order pulls the buffered 2000..3000.
	r.onData(seg(0, 1000, packet.ECT))
	r.onData(seg(1000, 1000, packet.ECT))
	last := acks[len(acks)-1]
	if last.Ack != 3000 {
		t.Fatalf("final cumulative ack = %d, want 3000", last.Ack)
	}
}

func TestDelayedAcksImmediateOnCEChange(t *testing.T) {
	// RFC 8257: when the CE state flips, the previous run is acknowledged
	// with its own echo state so the DCTCP mark fraction stays exact.
	s := sim.New()
	var acks []*packet.Packet
	r := newReceiver(s, &packet.Pool{}, 2, func(p *packet.Packet) { acks = append(acks, p) }, 1)
	r.setDelayedAcks(4, 500*units.Microsecond)
	r.onData(seg(0, 1000, packet.ECT)) // unmarked, held
	marked := seg(1000, 1000, packet.ECT)
	marked.Mark()
	r.onData(marked) // CE flip → ack the unmarked run immediately
	if len(acks) != 1 {
		t.Fatalf("acks = %d, want 1 on CE flip", len(acks))
	}
	if acks[0].Echo {
		t.Fatal("the flushed run was unmarked; echo must be false")
	}
	// The marked run flushes via count/timer with echo set.
	s.Run()
	last := acks[len(acks)-1]
	if !last.Echo {
		t.Fatal("marked run must echo CE")
	}
	if last.Ack != 2000 {
		t.Fatalf("final ack = %d, want 2000", last.Ack)
	}
}

func TestSetDelayedAcksValidation(t *testing.T) {
	ep := &Endpoint{}
	if err := ep.SetDelayedAcks(1, units.Millisecond); err == nil {
		t.Error("every=1 should fail")
	}
	if err := ep.SetDelayedAcks(2, 0); err == nil {
		t.Error("zero delay should fail")
	}
	if err := ep.SetDelayedAcks(2, 500*units.Microsecond); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
