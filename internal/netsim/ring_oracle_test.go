package netsim

import (
	"math/rand"
	"testing"

	"dynaq/internal/packet"
	"dynaq/internal/units"
)

// The service queue and the wire as they stood before queued packets were
// linked through themselves, kept verbatim as the oracle for pktQueue and
// packet.FIFO: each type is renamed with a parent prefix. The parent port
// kept each queue's drops and transmitted bytes in two slices beside its
// queues; parentPortQueues keeps them the same way.

// pktRing is a FIFO of packet pointers in a ring: n of its slots are in
// use, starting at head. Its length is a power of two, so positions wrap
// with a mask. It starts at 8 slots and doubles only when full, so it stays
// as long as the deepest the FIFO has been.
type parentPktRing struct {
	ring    []*packet.Packet
	head, n int
}

func (r *parentPktRing) push(p *packet.Packet) {
	if r.n == len(r.ring) {
		r.grow()
	}
	r.ring[(r.head+r.n)&(len(r.ring)-1)] = p
	r.n++
}

// grow doubles the ring (or makes its first 8 slots) and moves the packets
// to its start.
func (r *parentPktRing) grow() {
	grown := make([]*packet.Packet, max(8, 2*len(r.ring)))
	k := copy(grown, r.ring[r.head:])
	copy(grown[k:], r.ring[:r.head])
	r.ring, r.head = grown, 0
}

func (r *parentPktRing) pop() *packet.Packet {
	p := r.ring[r.head]
	r.ring[r.head] = nil
	r.head = (r.head + 1) & (len(r.ring) - 1)
	r.n--
	return p
}

// popTail removes the newest packet.
func (r *parentPktRing) popTail() *packet.Packet {
	r.n--
	i := (r.head + r.n) & (len(r.ring) - 1)
	p := r.ring[i]
	r.ring[i] = nil
	return p
}

// pktQueue is a service queue: a FIFO of packets with byte accounting.
type parentPktQueue struct {
	parentPktRing
	bytes units.ByteSize
}

func (q *parentPktQueue) push(p *packet.Packet) {
	q.parentPktRing.push(p)
	q.bytes += p.Size
}

func (q *parentPktQueue) pop() *packet.Packet {
	p := q.parentPktRing.pop()
	q.bytes -= p.Size
	return p
}

func (q *parentPktQueue) len() int { return q.n }

// popTail removes the newest packet (eviction victims leave from the
// tail, keeping in-flight ordering of the survivors intact).
func (q *parentPktQueue) popTail() *packet.Packet {
	p := q.parentPktRing.popTail()
	q.bytes -= p.Size
	return p
}

func (q *parentPktQueue) headPkt() *packet.Packet {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head]
}

// parentPortQueues is the parent port's queue state: its queues, and each
// queue's drops and transmitted bytes in slices of their own.
type parentPortQueues struct {
	queues     []parentPktQueue
	queueDrops []int64
	queueTx    []units.ByteSize
	wire       parentPktRing
}

// fifoQueues is the number of service queues a script drives.
const fifoQueues = 4

// checkFIFOMatchesRing plays one script on a port's queues and wire twice:
// as pktQueues and a packet.FIFO, and as the parent's rings. Each pair of
// bytes is an arrival at a queue, a drop there, a dequeue onto the wire,
// an eviction from a queue's tail, or a wire arrival that either enqueues
// the packet again (the next hop) or releases it. Packets come from one
// pool and return to it, so each crosses the free list and several FIFOs.
// After every step each queue must hold the same packets by length, bytes
// and head, with the same drops and transmitted bytes, and the wire the
// same; every packet taken out must be the same on both sides. It returns
// the deepest any queue got and how many steps left every queue empty.
func checkFIFOMatchesRing(t *testing.T, script []byte) (deepest, drained int) {
	t.Helper()
	var pkts packet.Pool
	now := make([]pktQueue, fifoQueues)
	var wire packet.FIFO
	ref := parentPortQueues{
		queues:     make([]parentPktQueue, fifoQueues),
		queueDrops: make([]int64, fifoQueues),
		queueTx:    make([]units.ByteSize, fifoQueues),
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, int(script[i+1])
		q := arg % fifoQueues
		var got, want *packet.Packet
		switch {
		case op <= 2: // an arrival
			p := pkts.Get()
			p.Seq, p.Size = int64(i), units.ByteSize(40+arg*6)
			now[q].push(p)
			ref.queues[q].push(p)
		case op == 3: // a drop at enqueue
			now[q].drops++
			ref.queueDrops[q]++
		case op == 4 && ref.queues[q].len() > 0: // a dequeue onto the wire
			got, want = now[q].pop(), ref.queues[q].pop()
			if got == want {
				now[q].tx += got.Size
				ref.queueTx[q] += want.Size
				wire.Push(got)
				ref.wire.push(want)
			}
		case op == 5 && ref.queues[q].len() > 0: // an eviction
			got, want = now[q].popTail(), ref.queues[q].popTail()
			if got == want {
				got.Release()
			}
		case op >= 6 && ref.wire.n > 0: // a wire arrival: the next hop, or the end
			got, want = wire.Pop(), ref.wire.pop()
			if got == want {
				if op == 6 {
					got.Class = q
					now[q].push(got)
					ref.queues[q].push(want)
				} else {
					got.Release()
				}
			}
		}
		if got != want {
			t.Fatalf("step %d (op %d, arg %d): took out seq %d, want seq %d", i/2, op, arg, seqOf(got), seqOf(want))
		}
		for j := range now {
			n, r := &now[j], &ref.queues[j]
			if n.Len() != r.len() || n.bytes != r.bytes || n.Head() != r.headPkt() ||
				n.drops != ref.queueDrops[j] || n.tx != ref.queueTx[j] {
				t.Fatalf("step %d (op %d, arg %d): queue %d holds %d packets, %v, drops %d, tx %v; want %d, %v, %d, %v (same head %v)",
					i/2, op, arg, j, n.Len(), n.bytes, n.drops, n.tx, r.len(), r.bytes, ref.queueDrops[j], ref.queueTx[j], n.Head() == r.headPkt())
			}
		}
		total := 0
		for j := range now {
			deepest = max(deepest, now[j].Len())
			total += now[j].Len()
		}
		if total == 0 && deepest > 0 {
			drained++
		}
		var wireHead *packet.Packet
		if ref.wire.n > 0 {
			wireHead = ref.wire.ring[ref.wire.head]
		}
		if wire.Len() != ref.wire.n || wire.Head() != wireHead {
			t.Fatalf("step %d (op %d, arg %d): wire holds %d packets, want %d (same head %v)",
				i/2, op, arg, wire.Len(), ref.wire.n, wire.Head() == wireHead)
		}
	}
	return deepest, drained
}

// seqOf names a packet in a failure: its Seq, or -1 for none.
func seqOf(p *packet.Packet) int64 {
	if p == nil {
		return -1
	}
	return p.Seq
}

// fifoScript is a random script in phases of 50 to 600 steps that alternate
// between mostly arrivals and mostly departures, so the queues climb to a
// hundred packets or more and drain again.
func fifoScript(rng *rand.Rand, steps int) []byte {
	script := make([]byte, 2*steps)
	grow, left := true, 0
	for i := 0; i < steps; i++ {
		if left == 0 {
			grow, left = !grow, 50+rng.Intn(551)
		}
		left--
		op := byte(rng.Intn(8))
		switch {
		case rng.Intn(2) == 1:
		case grow:
			op = byte(rng.Intn(3)) // an arrival
		default:
			op = []byte{4, 5, 7}[rng.Intn(3)] // a packet leaves a queue or the wire
		}
		script[2*i], script[2*i+1] = op, byte(rng.Intn(256))
	}
	return script
}

// TestFIFOMatchesRing runs seeded random scripts of 2 000 steps, and checks
// that they took some queue past 100 packets and drained every queue.
func TestFIFOMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	deepest, drained := 0, 0
	for trial := 0; trial < 200; trial++ {
		d, e := checkFIFOMatchesRing(t, fifoScript(rng, 2000))
		deepest, drained = max(deepest, d), drained+e
	}
	if deepest < 100 || drained == 0 {
		t.Fatalf("the scripts took a queue %d deep and drained every queue %d times", deepest, drained)
	}
}

func FuzzFIFOMatchesRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 4, 0, 6, 1, 7, 1})       // two arrivals, a dequeue, the next hop, the end
	f.Add([]byte{1, 2, 2, 2, 5, 2, 5, 2, 0, 2})       // an eviction down to empty, then an arrival
	f.Add([]byte{0, 3, 3, 3, 4, 3, 0, 3, 6, 1, 4, 1}) // a drop, a packet that moves queues
	f.Add(fifoScript(rand.New(rand.NewSource(1)), 600))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 8000 {
			script = script[:8000]
		}
		checkFIFOMatchesRing(t, script)
	})
}
