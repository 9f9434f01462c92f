package packet

import (
	"fmt"
	"math/rand"
	"testing"
)

// The pool as it stood before its free list was linked through the packets,
// kept as the oracle for Pool: the type is renamed with a parent prefix,
// and Release, a Packet method that reaches the pool through the packet's
// pool field, is the pool's release method here, so that the packets it
// hands out stay outside any Pool.

// Pool is a free list of packets. A simulation's endpoints share one —
// topology.Build gives every endpoint of a network the same pool, and a
// standalone transport.NewEndpoint gets one of its own — and simulations run
// in parallel, so there is no global pool. Get hands out zeroed packets and
// Packet.Release returns them; when the list is empty Get carves the next
// packet from a slab of slabSize, so a cell allocates about one object per
// slabSize packets of the network's peak in flight, and after warm-up a
// steady packet stream allocates nothing. The zero value is ready to use.
type parentPool struct {
	idle  []*Packet
	slab  []Packet // the uncarved rest of the last slab
	alloc int
}

// Get returns a zeroed packet owned by the caller.
func (pl *parentPool) Get() *Packet {
	if n := len(pl.idle); n > 0 {
		p := pl.idle[n-1]
		pl.idle = pl.idle[:n-1]
		*p = Packet{}
		return p
	}
	if len(pl.slab) == 0 {
		pl.slab = make([]Packet, slabSize)
	}
	p := &pl.slab[0]
	pl.slab = pl.slab[1:]
	pl.alloc++
	return p
}

// Allocated reports how many packets the pool has ever carved from its
// slabs; Idle how many of them are back on the free list. The two are
// equal exactly when every packet handed out has been released once.
func (pl *parentPool) Allocated() int { return pl.alloc }

// Idle reports how many packets sit on the free list.
func (pl *parentPool) Idle() int { return len(pl.idle) }

// release ends the packet's life and returns it to the pool. Releasing a
// packet twice is a bug — two owners would be handed the same object — and
// panics.
func (pl *parentPool) release(p *Packet) {
	if p.free {
		panic(fmt.Sprintf("packet: %v released twice", p))
	}
	p.free = true
	pl.idle = append(pl.idle, p)
}

// TestPoolFreeListMatchesParent runs random Get and Release sequences on a
// Pool and on the parent's pool in step. The two pools carve their own
// slabs, so a packet is named by the order it was carved in: at every Get
// both must hand out the same one, zeroed, and after every call both must
// report the same Allocated and Idle.
func TestPoolFreeListMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var pl Pool
		var ref parentPool
		carved := map[*Packet]int{} // a packet of either pool → its carve order
		var out, refOut []*Packet   // the packets handed out, in step
		// name is p's carve order; a Get that carved it raised the count.
		name := func(p *Packet, before, after int) int {
			if after > before {
				carved[p] = before
			}
			return carved[p]
		}
		for step := 0; step < 2000; step++ {
			// Phases of growth and drain, so the free list both fills and empties.
			get := rng.Intn(10) < 3+4*((step/150)%2)
			if get || len(out) == 0 {
				before, refBefore := pl.Allocated(), ref.Allocated()
				p, r := pl.Get(), ref.Get()
				if a, b := name(p, before, pl.Allocated()), name(r, refBefore, ref.Allocated()); a != b {
					t.Fatalf("trial %d step %d: Get handed out packet %d, the parent packet %d", trial, step, a, b)
				}
				if *p != (Packet{pool: &pl}) {
					t.Fatalf("trial %d step %d: Get handed out a packet that is not zeroed: %+v", trial, step, *p)
				}
				p.Seq, r.Seq = int64(step), int64(step)
				out, refOut = append(out, p), append(refOut, r)
			} else {
				i := rng.Intn(len(out))
				out[i].Release()
				ref.release(refOut[i])
				out[i], refOut[i] = out[len(out)-1], refOut[len(refOut)-1]
				out, refOut = out[:len(out)-1], refOut[:len(refOut)-1]
			}
			if pl.Allocated() != ref.Allocated() || pl.Idle() != ref.Idle() {
				t.Fatalf("trial %d step %d: allocated %d, idle %d; the parent %d, %d",
					trial, step, pl.Allocated(), pl.Idle(), ref.Allocated(), ref.Idle())
			}
		}
	}
}
