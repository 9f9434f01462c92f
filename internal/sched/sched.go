// Package sched implements the work-conserving packet schedulers the paper
// evaluates DynaQ under: deficit round-robin (DRR), weighted round-robin
// (WRR), strict priority queueing (SPQ), and the SPQ-over-DRR hybrid used in
// the dynamic-flow experiments (§V-A2: one shared high-priority queue above
// dedicated DRR queues).
//
// A Scheduler only decides *which* queue to serve next; the switch port owns
// the queues themselves and exposes their state through the View interface.
package sched

import (
	"fmt"
	"slices"

	"dynaq/internal/units"
)

// View is the read-only queue state a scheduler consults.
type View interface {
	// NumQueues returns the number of service queues on the port.
	NumQueues() int
	// QueueLen returns the backlog of queue i in bytes.
	QueueLen(i int) units.ByteSize
	// HeadSize returns the size of the head packet of queue i, or 0 when
	// queue i is empty. DRR needs it for deficit accounting.
	HeadSize(i int) units.ByteSize
}

// Scheduler selects the next service queue to dequeue from.
type Scheduler interface {
	// Select returns the index of the queue to serve next, or -1 when
	// every queue is empty. It may mutate internal round state when it
	// returns a queue, never when it returns -1: a poll that finds every
	// queue empty leaves the scheduler exactly as it was, so a caller that
	// knows nothing is buffered need not call at all.
	Select(v View) int
	// OnDequeue informs the scheduler that size bytes left queue i, and
	// whether that left the queue empty (a queue leaving the active set
	// resets its DRR deficit).
	OnDequeue(i int, size units.ByteSize, nowEmpty bool)
}

// anyBacklogged reports whether a queue of v holds bytes.
func anyBacklogged(v View) bool {
	for i := 0; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			return true
		}
	}
	return false
}

// DRR is deficit round-robin (Shreedhar & Varghese): each queue holds a
// byte deficit replenished by its quantum once per round; a queue is served
// while its head packet fits in the deficit.
type DRR struct {
	quantum    []units.ByteSize
	minQuantum units.ByteSize
	deficit    []units.ByteSize
	cur        int
	fresh      bool // true when arriving at cur for the first time this visit
}

// NewDRR builds a DRR scheduler with the given per-queue quantums (the
// paper's default is one MTU, 1.5KB).
func NewDRR(quantums []units.ByteSize) (*DRR, error) {
	if len(quantums) == 0 {
		return nil, fmt.Errorf("sched: DRR needs at least one queue")
	}
	for i, q := range quantums {
		if q <= 0 {
			return nil, fmt.Errorf("sched: DRR quantum of queue %d is %d, must be positive", i, q)
		}
	}
	return &DRR{
		quantum:    append([]units.ByteSize(nil), quantums...),
		minQuantum: slices.Min(quantums),
		deficit:    make([]units.ByteSize, len(quantums)),
		fresh:      true,
	}, nil
}

// EqualDRR builds a DRR scheduler with n queues sharing one quantum.
func EqualDRR(n int, quantum units.ByteSize) *DRR {
	qs := make([]units.ByteSize, n)
	for i := range qs {
		qs[i] = quantum
	}
	d, err := NewDRR(qs)
	if err != nil {
		panic(err)
	}
	return d
}

// Deficit exposes queue i's current deficit counter (for tests and traces).
func (d *DRR) Deficit(i int) units.ByteSize { return d.deficit[i] }

// Select implements Scheduler.
func (d *DRR) Select(v View) int { return d.selectFrom(v, 0) }

// selectFrom runs DRR over queues [off, N) of v, which it numbers from 0.
// The hybrid calls it with its strict-priority queues skipped. It takes an
// offset and not a View that shifts the indices, because such a wrapper is
// boxed into the interface on every call: one allocation per packet served.
func (d *DRR) selectFrom(v View, off int) int {
	// A backlogged queue is served after at most ceil(head/quantum) rounds,
	// so the walk is bounded by n·(maxHead/minQuantum + 2); going beyond
	// means the deficit accounting broke, not a transient condition. Nearly
	// every call returns within the first 2n steps, the least that bound can
	// be, so the scan for the largest head waits until a walk gets that far.
	n := v.NumQueues() - off
	bound, exact := 2*n, false
	for iter := 0; ; iter++ {
		// Walk from cur to the next backlogged queue, writing nothing on the
		// way: should the walk come round to cur, every queue is empty, and
		// such a poll must leave cur, fresh and the deficits alone.
		i, skipped := d.cur, 0
		for v.QueueLen(i+off) == 0 {
			if skipped++; skipped == len(d.quantum) {
				d.checkNoneBeyond(v, off)
				return -1
			}
			if i++; i == len(d.quantum) {
				i = 0
			}
		}
		// The queues walked past are inactive and carry no deficit; each
		// was a step of the walk and counts toward its bound.
		for ; skipped > 0; skipped-- {
			d.deficit[d.cur] = 0
			d.advance()
			iter++
		}
		if iter >= bound {
			if !exact {
				maxHead := units.ByteSize(0)
				for j := 0; j < n; j++ {
					maxHead = max(maxHead, v.HeadSize(j+off))
				}
				bound, exact = n*(int(maxHead/d.minQuantum)+2), true
			}
			if iter >= bound {
				panic(drrStuck)
			}
		}
		if d.fresh {
			d.deficit[i] += d.quantum[i]
			d.fresh = false
		}
		if v.HeadSize(i+off) <= d.deficit[i] {
			return i
		}
		d.advance()
	}
}

const drrStuck = "sched: DRR failed to select a backlogged queue (deficit accounting bug)"

// checkNoneBeyond panics when v has a backlogged queue the scheduler has no
// quantum for: no walk over the scheduler's own queues would ever serve it.
func (d *DRR) checkNoneBeyond(v View, off int) {
	for i := len(d.quantum) + off; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			panic(drrStuck)
		}
	}
}

// OnDequeue implements Scheduler.
func (d *DRR) OnDequeue(i int, size units.ByteSize, nowEmpty bool) {
	d.deficit[i] -= size
	if nowEmpty {
		d.deficit[i] = 0
		if d.cur == i {
			d.advance()
		}
	}
}

func (d *DRR) advance() {
	if d.cur++; d.cur == len(d.quantum) {
		d.cur = 0
	}
	d.fresh = true
}

// WRR is packet-based weighted round-robin: queue i is served up to w_i
// packets per visit.
type WRR struct {
	weights []int64
	cur     int
	served  int64
}

// NewWRR builds a WRR scheduler with the given integer weights.
func NewWRR(weights []int64) (*WRR, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("sched: WRR needs at least one queue")
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("sched: WRR weight of queue %d is %d, must be positive", i, w)
		}
	}
	return &WRR{weights: append([]int64(nil), weights...)}, nil
}

// EqualWRR builds a WRR scheduler over n equally-weighted queues.
func EqualWRR(n int) *WRR {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1
	}
	w, err := NewWRR(ws)
	if err != nil {
		panic(err)
	}
	return w
}

// Select implements Scheduler.
func (w *WRR) Select(v View) int {
	if !anyBacklogged(v) {
		return -1
	}
	for iter := 0; iter <= v.NumQueues(); iter++ {
		i := w.cur
		if v.QueueLen(i) > 0 && w.served < w.weights[i] {
			return i
		}
		w.advance()
	}
	panic("sched: WRR failed to select a backlogged queue")
}

// OnDequeue implements Scheduler.
func (w *WRR) OnDequeue(i int, _ units.ByteSize, nowEmpty bool) {
	if i != w.cur {
		return
	}
	w.served++
	if nowEmpty || w.served >= w.weights[i] {
		w.advance()
	}
}

func (w *WRR) advance() {
	w.cur = (w.cur + 1) % len(w.weights)
	w.served = 0
}

// SPQ is strict priority queueing: lower queue index means higher priority;
// a queue is served only when all higher-priority queues are empty.
type SPQ struct{}

// NewSPQ returns a strict-priority scheduler.
func NewSPQ() *SPQ { return &SPQ{} }

// Select implements Scheduler.
func (*SPQ) Select(v View) int {
	for i := 0; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			return i
		}
	}
	return -1
}

// OnDequeue implements Scheduler.
func (*SPQ) OnDequeue(int, units.ByteSize, bool) {}

// SPQDRR is the hybrid of §V-A2: queues [0, prio) are strict-priority
// (shared high-priority queues), and the remaining queues are DRR among
// themselves, served only when every priority queue is empty. "Packets in
// the DRR queues can be dequeued only when the SPQ queue is empty."
type SPQDRR struct {
	prio int
	drr  *DRR
}

// NewSPQDRR builds the hybrid: prio strict queues above a DRR over the
// remaining len(quantums) queues. Queue indices seen by callers cover the
// whole port: [0, prio) strict, [prio, prio+len(quantums)) DRR.
func NewSPQDRR(prio int, quantums []units.ByteSize) (*SPQDRR, error) {
	if prio <= 0 {
		return nil, fmt.Errorf("sched: SPQDRR needs at least one priority queue, got %d", prio)
	}
	drr, err := NewDRR(quantums)
	if err != nil {
		return nil, err
	}
	return &SPQDRR{prio: prio, drr: drr}, nil
}

// PriorityQueues returns the number of strict-priority queues.
func (s *SPQDRR) PriorityQueues() int { return s.prio }

// Select implements Scheduler.
func (s *SPQDRR) Select(v View) int {
	for i := 0; i < s.prio; i++ {
		if v.QueueLen(i) > 0 {
			return i
		}
	}
	if i := s.drr.selectFrom(v, s.prio); i >= 0 {
		return i + s.prio
	}
	return -1
}

// OnDequeue implements Scheduler.
func (s *SPQDRR) OnDequeue(i int, size units.ByteSize, nowEmpty bool) {
	if i >= s.prio {
		s.drr.OnDequeue(i-s.prio, size, nowEmpty)
	}
}
