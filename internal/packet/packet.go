// Package packet defines the on-wire unit that flows through the simulator:
// a TCP-like segment with ECN codepoints and a service-class tag.
//
// The service class plays the role of the DSCP field the paper's qdisc
// prototype reads to map a packet to a switch service queue.
package packet

import (
	"fmt"

	"dynaq/internal/units"
)

// FlowID uniquely identifies a transport flow.
type FlowID uint64

// ECN is the two-bit ECN codepoint from RFC 3168.
type ECN uint8

// ECN codepoints.
const (
	NotECT ECN = iota // transport does not support ECN
	ECT               // ECN-capable transport
	CE                // congestion experienced (set by a marking switch)
)

// Kind distinguishes data segments from pure ACKs; ACKs are never subject to
// service-queue buffering games in these experiments, but they still consume
// (small) link time.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
)

// AckSize is the wire size of a pure ACK.
const AckSize units.ByteSize = 40

// Packet is one simulated segment. Packets are passed by pointer and are not
// copied after creation; the switch annotates EnqueueTime for sojourn-time
// schemes (TCN).
//
// A packet has one owner at a time: whoever was handed the pointer last.
// The owner that ends the packet's life (the endpoint that consumed it, the
// port that dropped it) calls Release, after which it must not touch the
// packet again. A pointer seen in passing, such as netsim.PortEvent.Pkt, is
// good only until the call that passed it returns; keep Detached copies.
type Packet struct {
	// Everything a switch hop reads or writes (routing, admission, marking,
	// sojourn, queueing, release) comes before Payload, in the first 60
	// bytes, so a hop touches at most two cache lines of the packet, and one
	// when the packet starts early enough in a line (every other packet of a
	// slab).

	Flow FlowID
	// Dst is the destination host id used for routing.
	Dst int
	// Size is the wire size in bytes, including headers.
	Size units.ByteSize
	// Class is the service class: the index of the switch service queue
	// this packet maps to (the paper's DSCP-derived queue index). For
	// SPQ/DRR hybrids, class 0 is the high-priority queue.
	Class int
	// EnqueueTime is stamped by the switch port on enqueue so that
	// dequeue-time schemes (TCN) can compute the sojourn time.
	EnqueueTime units.Time
	// pool is the free list this packet came from and returns to; nil for a
	// packet built with a literal, which Release leaves to the collector.
	pool *Pool
	// next links the packet to the one behind it in the one list that holds
	// it: a FIFO (a port's service queue, a link's wire) or its pool's free
	// list. A packet has one owner, so it is in at most one list at a time.
	next *Packet
	// ECN state. Echo is the receiver->sender congestion echo (the
	// TCP ECE flag); CWR would be modelled symmetrically but DCTCP's
	// per-packet echo makes it unnecessary here.
	ECN  ECN
	Kind Kind
	// free is set while the packet sits in pool, to catch a second Release.
	free bool
	Echo bool
	// Payload is the number of payload bytes carried (Data). It fits the
	// four bytes after the flags: a frame is at most 65 535 bytes, the
	// largest MTU a scenario accepts.
	Payload int32

	// Src is the originating host id.
	Src int
	// Seq is the first payload byte's sequence number (Data), in bytes.
	Seq int64
	// Ack is the cumulative acknowledgment (Ack packets): the next byte
	// the receiver expects.
	Ack int64
	// SentAt is when the sender (re)transmitted this packet; used for RTT
	// estimation without timestamps options.
	SentAt units.Time
}

// slabSize is how many packets a pool carves from one allocation when its
// free list runs empty.
const slabSize = 64

// Pool is a free list of packets. A simulation's endpoints share one —
// topology.Build gives every endpoint of a network the same pool, and a
// standalone transport.NewEndpoint gets one of its own — and simulations run
// in parallel, so there is no global pool. Get hands out zeroed packets and
// Packet.Release returns them; when the list is empty Get carves the next
// packet from a slab of slabSize, so a cell allocates about one object per
// slabSize packets of the network's peak in flight, and after warm-up a
// steady packet stream allocates nothing. The free list is a stack linked
// through the packets' next fields, so it never allocates either: the last
// packet released is the first handed out again. The zero value is ready to
// use.
type Pool struct {
	idle  *Packet // top of the free list
	nidle int
	slab  []Packet // the uncarved rest of the last slab
	alloc int
}

// Get returns a zeroed packet owned by the caller.
func (pl *Pool) Get() *Packet {
	if p := pl.idle; p != nil {
		pl.idle = p.next
		pl.nidle--
		*p = Packet{pool: pl}
		return p
	}
	if len(pl.slab) == 0 {
		pl.slab = make([]Packet, slabSize)
	}
	p := &pl.slab[0]
	pl.slab = pl.slab[1:]
	pl.alloc++
	p.pool = pl
	return p
}

// Allocated reports how many packets the pool has ever carved from its
// slabs; Idle how many of them are back on the free list. The two are
// equal exactly when every packet handed out has been released once.
func (pl *Pool) Allocated() int { return pl.alloc }

// Idle reports how many packets sit on the free list.
func (pl *Pool) Idle() int { return pl.nidle }

// Release ends the packet's life and returns it to the pool it came from.
// On a packet that came from no pool it does nothing, so code that consumes
// packets need not know who built them. Releasing a pooled packet twice is
// a bug — two owners would be handed the same object — and panics.
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	if p.free {
		panic(fmt.Sprintf("packet: %v released twice", p))
	}
	p.free = true
	p.next = pl.idle
	pl.idle = p
	pl.nidle++
}

// Detached returns a copy of the packet that belongs to no pool: a snapshot
// that stays valid after the original is released and reused.
func (p *Packet) Detached() Packet {
	c := *p
	c.pool, c.next, c.free = nil, nil, false
	return c
}

// String renders a compact human-readable packet description for traces.
func (p *Packet) String() string {
	k := "DATA"
	if p.Kind == Ack {
		k = "ACK"
	}
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d ack=%d size=%d class=%d",
		k, p.Flow, p.Src, p.Dst, p.Seq, p.Ack, int64(p.Size), p.Class)
}

// Marked reports whether a switch set Congestion Experienced on the packet.
func (p *Packet) Marked() bool { return p.ECN == CE }

// Mark sets Congestion Experienced if the packet belongs to an ECN-capable
// transport, and reports whether the mark was applied. Non-ECT packets
// cannot be marked (RFC 3168); callers that want drop-instead-of-mark
// behaviour handle the false return.
func (p *Packet) Mark() bool {
	if p.ECN == NotECT {
		return false
	}
	p.ECN = CE
	return true
}
