package transport

import (
	"fmt"

	"dynaq/internal/packet"
)

// MaxFlowID is the largest flow id a flow table indexes. Ids are dense in
// every cell, counted from 1, and the table's directory grows with the
// largest id it has seen: 16 bytes per slabFlows ids, at most 8 MB at this
// bound.
const MaxFlowID packet.FlowID = 1 << 24

// slabFlows is how many consecutive flow ids share one slab: one malloc per
// that many flows. A slab is about 12 KB; with 64 flows per slab a 160-flow
// cell would carry 32 empty slots, another 12 KB.
const slabFlows = 32

// FlowTable holds the flows of one network, indexed by flow id: a slot per
// id with the flow's Sender, at its source, and its Receiver, at its
// destination. Slots come from slabs of slabFlows consecutive ids, which
// never move, so the *Sender a StartFlow returns and its timeout event's
// argument stay valid. The zero FlowTable is empty and ready to use.
//
// A flow retires when its sender completes holding the receiver's last word:
// the receiver has every byte the sender ever sent, so no packet still in
// flight can move it. Its slot then keeps a tombstone, the receiver's final
// cumulative ACK, which answers a late duplicate exactly as the live
// receiver would have. Once every flow of a slab has retired, the slab
// leaves the table and the tombstones move to an array of slabFlows ACKs;
// the slab itself is never reused, so a caller still holding one of its
// senders keeps a valid one. Live state thus scales with the flows in
// progress, plus eight bytes per finished flow.
type FlowTable struct {
	blocks []flowBlock // by (id-1) / slabFlows
	runs   runArena    // its receivers' out-of-order runs

	senders, receivers int // live ones: started and not completed; receiving and not retired
}

// flowBlock is the state of slabFlows consecutive flow ids.
type flowBlock struct {
	slab *flowSlab         // nil before the block's first flow and after its last retires
	acks *[slabFlows]int64 // the tombstones once the slab has left: each flow's final ACK
}

// flowSlab is a block's live state.
type flowSlab struct {
	slots   [slabFlows]flowSlot
	retired int // flows retired at both ends
}

// flowSlot is one flow id's sender and receiver. A slot holds a sender once
// StartFlow has taken its id (Sender.ep set) and a receiver once the flow's
// first data packet arrived (Receiver.ep set).
type flowSlot struct {
	snd Sender
	rcv Receiver
}

// Live reports the table's live senders (started and not completed) and
// receivers (not retired).
func (t *FlowTable) Live() (senders, receivers int) { return t.senders, t.receivers }

// block returns the block holding id and id's index in it. With grow set it
// makes the block's slab if the block has neither slab nor tombstones yet;
// without, it returns nil for an id past the directory. It returns nil for
// an id outside [1, MaxFlowID].
func (t *FlowTable) block(id packet.FlowID, grow bool) (*flowBlock, int) {
	if id == 0 || id > MaxFlowID {
		return nil, 0
	}
	n := int(id - 1)
	bi := n / slabFlows
	if bi >= len(t.blocks) {
		if !grow {
			return nil, 0
		}
		t.blocks = append(t.blocks, make([]flowBlock, bi+1-len(t.blocks))...)
	}
	b := &t.blocks[bi]
	if grow && b.slab == nil && b.acks == nil {
		b.slab = new(flowSlab)
	}
	return b, n % slabFlows
}

// claim returns the slot StartFlow builds id's sender in, refusing an id
// outside [1, MaxFlowID] and one the table has seen before.
func (t *FlowTable) claim(id packet.FlowID) (*flowSlot, error) {
	b, i := t.block(id, true)
	if b == nil {
		return nil, fmt.Errorf("flow id %d outside [1, %d]", id, MaxFlowID)
	}
	if b.slab == nil {
		return nil, fmt.Errorf("duplicate flow id %d: that flow has finished", id)
	}
	slot := &b.slab.slots[i]
	if slot.snd.ep != nil || slot.rcv.ep != nil {
		return nil, fmt.Errorf("duplicate flow id %d", id)
	}
	return slot, nil
}

// sender returns id's sender, live or completed, or nil.
func (t *FlowTable) sender(id packet.FlowID) *Sender {
	b, i := t.block(id, false)
	if b == nil || b.slab == nil {
		return nil
	}
	return &b.slab.slots[i].snd
}

// deliver hands data packet p, arrived at ep, to its flow's receiver, making
// the receiver on the flow's first packet. A retired flow's tombstone
// answers in its place. A packet no sender of the table can have sent — its
// id outside the table's domain, or its flow received at another host — is
// dropped unanswered.
func (t *FlowTable) deliver(ep *Endpoint, p *packet.Packet) {
	b, i := t.block(p.Flow, true)
	switch {
	case b == nil:
	case b.slab == nil:
		ep.ack(p, b.acks[i])
	default:
		r := &b.slab.slots[i].rcv
		switch {
		case r.ep == nil:
			*r = Receiver{ep: ep}
			t.receivers++
			r.onData(p)
		case r.ep != ep:
		case r.retired:
			ep.ack(p, r.rcvNxt)
		default:
			r.onData(p)
		}
	}
}

// retire is FlowTable's half of a sender's completion. The flow retires if
// its receiver is final: it sits at the sender's destination, holds no
// out-of-order data and has every byte the sender ever sent, the bytes a
// timeout's go-back-N rewound past included. Every later data packet of the
// flow is then a duplicate its tombstone answers. A flow whose receiver is
// not final, as when a Stop cuts a go-back-N short while bytes past the stop
// point are still in flight, keeps its live receiver.
func (t *FlowTable) retire(snd *Sender) {
	t.senders--
	b, i := t.block(snd.flow, false)
	r := &b.slab.slots[i].rcv
	if r.ep == nil || r.ep.host.ID() != snd.dst || r.ooo != nil || r.rcvNxt < max(snd.nxt, snd.rewound) {
		return
	}
	r.retired = true
	t.receivers--
	if b.slab.retired++; b.slab.retired < slabFlows {
		return
	}
	acks := new([slabFlows]int64)
	for i := range acks {
		acks[i] = b.slab.slots[i].rcv.rcvNxt
	}
	b.slab, b.acks = nil, acks
}

// run is the payload bytes [seq, end) of a flow, buffered out of order, and
// the next run above it.
type run struct {
	seq, end int64
	next     *run
}

// runSlab is how many runs a run arena carves from one allocation: 3 KB.
const runSlab = 128

// runArena is a flow table's supply of runs. A receiver holds runs only while
// it has out-of-order data, and in-order data hands them back, so a network
// allocates about one slab per runSlab runs that its receivers buffer at once
// at their peak, not per flow received. Idle runs are a stack linked through
// their next fields; slabs never move, so a run stays where it is while it
// is held. The zero runArena is empty and ready to use.
type runArena struct {
	idle   *run  // top of the idle stack
	slab   []run // the uncarved rest of the last slab
	carved int   // runs carved from slabs, held and idle
}

// get returns a run [seq, end) linked to next.
func (a *runArena) get(seq, end int64, next *run) *run {
	r := a.idle
	if r != nil {
		a.idle = r.next
	} else {
		if len(a.slab) == 0 {
			a.slab = make([]run, runSlab)
		}
		r, a.slab = &a.slab[0], a.slab[1:]
		a.carved++
	}
	*r = run{seq: seq, end: end, next: next}
	return r
}

// put makes the runs from first to last, linked through next, idle.
func (a *runArena) put(first, last *run) {
	last.next, a.idle = a.idle, first
}
