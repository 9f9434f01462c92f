package buffer

import (
	"fmt"

	"dynaq/internal/units"
)

// SharedPool models a shared-memory switch: every port draws buffer from
// one pool instead of owning a private slice. §II-C discusses this regime
// ("many switches allow a single port to occupy many buffers") and argues
// it cannot isolate service queues; the DT scheme below plus the
// shared-memory experiment reproduce that argument.
type SharedPool struct {
	total units.ByteSize
	used  units.ByteSize
}

// NewSharedPool builds a pool of the given total size.
func NewSharedPool(total units.ByteSize) (*SharedPool, error) {
	if total <= 0 {
		return nil, fmt.Errorf("buffer: pool size %d must be positive", total)
	}
	return &SharedPool{total: total}, nil
}

// Total returns the pool size.
func (p *SharedPool) Total() units.ByteSize { return p.total }

// Used returns the bytes currently reserved.
func (p *SharedPool) Used() units.ByteSize { return p.used }

// Free returns the unreserved bytes.
func (p *SharedPool) Free() units.ByteSize { return p.total - p.used }

// Reserve takes n bytes from the pool, reporting whether they fit.
func (p *SharedPool) Reserve(n units.ByteSize) bool {
	if p.used+n > p.total {
		return false
	}
	p.used += n
	return true
}

// Release returns n bytes to the pool.
func (p *SharedPool) Release(n units.ByteSize) {
	p.used -= n
	if p.used < 0 {
		panic("buffer: pool release underflow")
	}
}

// DT is the classic dynamic-threshold algorithm (Choudhury & Hahne) for
// sharing a memory pool across ports: a port may buffer up to α times the
// remaining free pool. It performs no per-queue accounting inside the port
// — which is exactly why §II-C rejects it for service-queue isolation:
// "even we allocate a large buffer size to a port, bandwidth cannot be
// shared fairly since aggressive queues eventually fill up the buffer. It
// also harms per-port fairness."
type DT struct {
	pool  *SharedPool
	alpha float64
}

// NewDT builds a DT admission scheme drawing from pool with the given α
// (typical hardware default: 1 or 2; the "DT" row uses 2).
func NewDT(pool *SharedPool, alpha float64) (*DT, error) {
	if pool == nil {
		return nil, fmt.Errorf("buffer: DT needs the switch's shared memory")
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("buffer: DT alpha %v must be positive", alpha)
	}
	return &DT{pool: pool, alpha: alpha}, nil
}

// Name implements Admission.
func (*DT) Name() string { return "DT" }

// Pool returns the switch memory DT draws from; a port whose scheme has a
// Pool reserves every admitted byte from it as well.
func (d *DT) Pool() *SharedPool { return d.pool }

// Admit implements Admission: the port's occupancy (plus the arrival) must
// stay below α·(free pool). The port separately reserves the bytes from
// the pool, so two ports can never over-commit the memory.
func (d *DT) Admit(v View, _ int, size units.ByteSize) bool {
	return float64(v.TotalLen()+size) <= d.alpha*float64(d.pool.Free())
}

// Evictor is implemented by schemes that, instead of dropping an arriving
// packet, push out an already-buffered packet of another queue — BarberQ's
// approach to absorbing latency-sensitive microbursts (reference [12] of
// the paper; §II-C: "packet eviction is an effective technique to absorb
// latency-sensitive microbursts").
type Evictor interface {
	// EvictFor is consulted when an arriving packet for queue cls was
	// refused admission. It returns the queue whose tail packet should be
	// evicted to make room, or -1 to drop the arrival instead. The port
	// re-runs admission after each eviction.
	EvictFor(v View, cls int, size units.ByteSize) int
}

// BarberQ shares the buffer best-effort but, when the port is full, evicts
// from the longest queue as long as the arriving packet's queue holds less
// than its fair share of the buffer. Small-queue microbursts therefore
// displace buffer hogs instead of being dropped.
type BarberQ struct {
	BestEffort
}

// NewBarberQ returns the eviction-based scheme.
func NewBarberQ() *BarberQ { return &BarberQ{} }

// Name implements Admission.
func (*BarberQ) Name() string { return "BarberQ" }

// EvictFor implements Evictor.
func (b *BarberQ) EvictFor(v View, cls int, size units.ByteSize) int {
	fairShare := v.Buffer() / units.ByteSize(v.NumQueues())
	if v.QueueLen(cls)+size > fairShare {
		return -1 // the arrival is not an under-share victim: drop it
	}
	longest, longestLen := -1, units.ByteSize(0)
	for i := 0; i < v.NumQueues(); i++ {
		if i == cls {
			continue
		}
		if l := v.QueueLen(i); l > longestLen {
			longest, longestLen = i, l
		}
	}
	if longestLen <= fairShare {
		return -1 // nobody is over their share: drop the arrival
	}
	return longest
}
