package packet

import (
	"strings"
	"testing"
	"unsafe"
)

func TestMarkRequiresECT(t *testing.T) {
	p := &Packet{ECN: NotECT}
	if p.Mark() {
		t.Fatal("non-ECT packet must not be markable")
	}
	if p.Marked() {
		t.Fatal("packet should not be marked")
	}

	p = &Packet{ECN: ECT}
	if !p.Mark() {
		t.Fatal("ECT packet must be markable")
	}
	if !p.Marked() {
		t.Fatal("marked packet should report Marked")
	}

	// Marking a CE packet again is fine and stays marked.
	if !p.Mark() {
		t.Fatal("CE packet re-mark should report true")
	}
}

func TestString(t *testing.T) {
	p := &Packet{Kind: Data, Flow: 7, Src: 1, Dst: 2, Seq: 1500, Size: 1500, Class: 3}
	s := p.String()
	for _, want := range []string{"DATA", "flow=7", "1->2", "seq=1500", "class=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	a := &Packet{Kind: Ack, Ack: 3000, Size: 40}
	if !strings.Contains(a.String(), "ACK") {
		t.Errorf("ack String() = %q", a.String())
	}
}

func TestPoolRecyclesZeroedPackets(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Flow, p.Seq, p.ECN, p.Echo = 7, 1460, CE, true
	p.Release()
	if pl.Allocated() != 1 || pl.Idle() != 1 {
		t.Fatalf("allocated %d, idle %d after one get and release, want 1 and 1", pl.Allocated(), pl.Idle())
	}
	q := pl.Get()
	if q != p {
		t.Fatal("the pool allocated while a released packet sat idle")
	}
	if q.Flow != 0 || q.Seq != 0 || q.ECN != NotECT || q.Echo {
		t.Fatalf("recycled packet still carries its last life: %+v", q)
	}
	if pl.Allocated() != 1 || pl.Idle() != 0 {
		t.Fatalf("allocated %d, idle %d with the packet out again, want 1 and 0", pl.Allocated(), pl.Idle())
	}
}

func TestReleaseOfAForeignPacketIsANoOp(t *testing.T) {
	p := &Packet{Flow: 3}
	p.Release()
	p.Release()
	if p.Flow != 3 {
		t.Fatal("release touched a packet that belongs to no pool")
	}
}

func TestSecondReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a packet went back to its pool twice without a panic")
		}
	}()
	p.Release()
}

func TestDetachedCopyBelongsToNoPool(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Flow = 9
	c := p.Detached()
	p.Release()
	pl.Get().Flow = 10 // the original's next life
	if c.Flow != 9 {
		t.Fatalf("detached copy reads flow %d after the original was reused, want 9", c.Flow)
	}
	c.Release()
	if pl.Idle() != 0 {
		t.Fatal("releasing a detached copy reached the pool")
	}
}

// TestHopFieldsShareTheFirstCacheLine pins the layout a switch hop relies
// on: everything routing, admission, marking, sojourn and release touch ends
// within the packet's first 64 bytes, and the whole packet takes at most 96
// (96 with 64-bit words, 76 with 32-bit ones).
func TestHopFieldsShareTheFirstCacheLine(t *testing.T) {
	var p Packet
	if got := unsafe.Sizeof(p); got > 96 {
		t.Errorf("sizeof(Packet) = %d, want at most 96", got)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"Flow", unsafe.Offsetof(p.Flow), unsafe.Sizeof(p.Flow)},
		{"Dst", unsafe.Offsetof(p.Dst), unsafe.Sizeof(p.Dst)},
		{"Size", unsafe.Offsetof(p.Size), unsafe.Sizeof(p.Size)},
		{"Class", unsafe.Offsetof(p.Class), unsafe.Sizeof(p.Class)},
		{"EnqueueTime", unsafe.Offsetof(p.EnqueueTime), unsafe.Sizeof(p.EnqueueTime)},
		{"ECN", unsafe.Offsetof(p.ECN), unsafe.Sizeof(p.ECN)},
		{"Kind", unsafe.Offsetof(p.Kind), unsafe.Sizeof(p.Kind)},
		{"pool", unsafe.Offsetof(p.pool), unsafe.Sizeof(p.pool)},
		{"free", unsafe.Offsetof(p.free), unsafe.Sizeof(p.free)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("%s ends at byte %d, past the first cache line", f.name, end)
		}
	}
}

// TestPoolCarvesSlabs checks that an empty free list costs one allocation
// per slab, not one per packet, and that every carved packet counts.
func TestPoolCarvesSlabs(t *testing.T) {
	var pl Pool
	const n = 10 * slabSize
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			pl.Get()
		}
	})
	if allocs > n/slabSize {
		t.Errorf("%v allocations for %d packets carved, want at most one per slab of %d", allocs, n, slabSize)
	}
	// AllocsPerRun runs the function once to warm up, then once measured.
	if pl.Allocated() != 2*n || pl.Idle() != 0 {
		t.Fatalf("allocated %d, idle %d, want %d and 0", pl.Allocated(), pl.Idle(), 2*n)
	}
}
