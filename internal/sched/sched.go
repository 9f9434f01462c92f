// Package sched implements the work-conserving packet schedulers the paper
// evaluates DynaQ under: deficit round-robin (DRR), weighted round-robin
// (WRR), strict priority queueing (SPQ), and the SPQ-over-DRR hybrid used in
// the dynamic-flow experiments (§V-A2: one shared high-priority queue above
// dedicated DRR queues).
//
// A Scheduler only decides *which* queue to serve next; the switch port owns
// the queues themselves. It tells the scheduler which of them hold bytes as
// one backlog word, and exposes the rest of their state through the View
// interface.
package sched

import (
	"fmt"
	"math/bits"
	"slices"

	"dynaq/internal/units"
)

// MaxQueues is the most service queues a scheduler serves: each is one bit
// of a backlog word.
const MaxQueues = 64

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
	// Pick returns the index of the queue to serve next, or -1 when
	// backlog is zero. Bit i of backlog is set exactly when queue i of v
	// holds bytes, as Backlog(v) computes it. Pick may mutate internal round
	// state when it returns a queue, never when it returns -1: a poll that
	// finds every queue empty leaves the scheduler exactly as it was, so a
	// caller that knows nothing is buffered need not call at all.
	Pick(backlog uint64, v View) int
	// OnDequeue informs the scheduler that size bytes left queue i, and
	// whether that left the queue empty (a queue leaving the active set
	// resets its DRR deficit).
	OnDequeue(i int, size units.ByteSize, nowEmpty bool)
	// ServeLone makes the state change Pick(1<<i, v) followed by
	// OnDequeue(i, size, nowEmpty) makes when queue i is the only backlogged
	// queue of v and its head packet is size bytes: the caller knows which
	// queue Pick would return, so it need not ask, nor expose its head.
	ServeLone(i int, size units.ByteSize, nowEmpty bool)
}

// Backlog returns v's backlog word: bit i set when queue i holds bytes. A
// caller that keeps the word as its queues change need not call it.
func Backlog(v View) uint64 {
	n := v.NumQueues()
	if n > MaxQueues {
		panic(fmt.Sprintf("sched: a view of %d queues has no backlog word (at most %d)", n, MaxQueues))
	}
	var b uint64
	for i := 0; i < n; i++ {
		if v.QueueLen(i) > 0 {
			b |= 1 << i
		}
	}
	return b
}

// lowBits returns the word with bits [0, n) set.
func lowBits(n int) uint64 { return ^uint64(0) >> (64 - n) }

// checkQueues rejects a scheduler over no queues or over more than a backlog
// word holds.
func checkQueues(kind string, n int) error {
	if n == 0 {
		return fmt.Errorf("sched: %s needs at least one queue", kind)
	}
	if n > MaxQueues {
		return fmt.Errorf("sched: %s over %d queues, more than the %d a backlog word holds", kind, n, MaxQueues)
	}
	return nil
}

// DRR is deficit round-robin (Shreedhar & Varghese): each queue holds a
// byte deficit replenished by its quantum once per round; a queue is served
// while its head packet fits in the deficit.
type DRR struct {
	quantum    []units.ByteSize // first half of one backing array, deficit the second
	minQuantum units.ByteSize
	deficit    []units.ByteSize
	cur        int
	fresh      bool // true when arriving at cur for the first time this visit
}

// NewDRR builds a DRR scheduler with the given per-queue quantums (the
// paper's default is one MTU, 1.5KB).
func NewDRR(quantums []units.ByteSize) (*DRR, error) {
	qd := make([]units.ByteSize, 2*len(quantums))
	copy(qd, quantums)
	return newDRR(qd)
}

// newDRR is NewDRR over a DRR that keeps qd (see init).
func newDRR(qd []units.ByteSize) (*DRR, error) {
	d := new(DRR)
	if err := d.init(qd); err != nil {
		return nil, err
	}
	return d, nil
}

// init makes d a fresh DRR over the quantums in the first half of qd, whose
// second half, zero, becomes the deficits. d keeps qd: a DRR's per-queue
// state is that one array.
func (d *DRR) init(qd []units.ByteSize) error {
	n := len(qd) / 2
	quantums := qd[:n:n]
	if err := checkQueues("DRR", n); err != nil {
		return err
	}
	for i, q := range quantums {
		if q <= 0 {
			return fmt.Errorf("sched: DRR quantum of queue %d is %d, must be positive", i, q)
		}
	}
	*d = DRR{quantum: quantums, minQuantum: slices.Min(quantums), deficit: qd[n:], fresh: true}
	return nil
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

// Pick implements Scheduler.
func (d *DRR) Pick(backlog uint64, v View) int { return d.pickFrom(backlog, v, 0) }

// Select is Pick with the backlog word read off v.
func (d *DRR) Select(v View) int { return d.Pick(Backlog(v), v) }

// pickFrom runs DRR over queues [off, N) of v, which it numbers from 0, and
// whose backlog word, shifted down by off, is backlog. The hybrid calls it
// with its strict-priority queues skipped. It takes an offset and not a View
// that shifts the indices, because such a wrapper is boxed into the
// interface on every call: one allocation per packet served.
func (d *DRR) pickFrom(backlog uint64, v View, off int) int {
	nq := len(d.quantum)
	own := backlog & lowBits(nq)
	if own == 0 {
		// None of the scheduler's queues holds bytes: such a poll must leave
		// cur, fresh and the deficits alone, and a backlogged queue beyond
		// them, having no quantum, would never be served.
		if backlog != 0 {
			panic(drrStuck)
		}
		return -1
	}
	// A backlogged queue is served after at most ceil(head/quantum) rounds,
	// so the walk is bounded by n·(maxHead/minQuantum + 2) over the n queues
	// of v from off; going beyond means the deficit accounting broke, not a
	// transient condition. That bound is at least 2n ≥ 2·nq, and nearly every
	// call returns within 2·nq steps, so it is worked out only once a walk
	// gets that far.
	bound := -1
	for iter := 0; ; iter++ {
		// The next backlogged queue from cur on, cyclically: the bits at and
		// above cur first, else the lowest one below it.
		i := d.cur
		if ahead := own >> i; ahead != 0 {
			i += bits.TrailingZeros64(ahead)
		} else {
			i = bits.TrailingZeros64(own)
		}
		// Each queue walked past was a step of the walk and counts toward
		// its bound.
		iter += d.walkTo(i)
		if iter >= 2*nq {
			if bound < 0 {
				n, maxHead := v.NumQueues()-off, units.ByteSize(0)
				for j := 0; j < n; j++ {
					maxHead = max(maxHead, v.HeadSize(j+off))
				}
				bound = n * (int(maxHead/d.minQuantum) + 2)
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

// walkTo moves the round from cur to queue i, cyclically, and returns how
// many queues it passed. Those are inactive and carry no deficit, so theirs
// are zeroed; arriving at i is a fresh visit unless the round was there.
func (d *DRR) walkTo(i int) int {
	if d.cur == i {
		return 0
	}
	steps := 0
	for j := d.cur; j != i; steps++ {
		d.deficit[j] = 0
		if j++; j == len(d.deficit) {
			j = 0
		}
	}
	d.cur, d.fresh = i, true
	return steps
}

// ServeLone implements Scheduler: Pick's walk with queue i alone backlogged,
// in closed form. The walk steps from cur to i and tops up i's deficit if it
// arrives fresh. While the head does not fit, the walk goes round once more:
// that zeroes every other queue's deficit, stale ones included, and gives i
// another quantum.
func (d *DRR) ServeLone(i int, size units.ByteSize, nowEmpty bool) {
	if i >= len(d.quantum) {
		panic(drrStuck) // Pick's verdict on a backlogged queue beyond its own
	}
	d.walkTo(i)
	if d.fresh {
		d.deficit[i] += d.quantum[i]
		d.fresh = false
	}
	if size > d.deficit[i] {
		clear(d.deficit[:i])
		clear(d.deficit[i+1:])
		for size > d.deficit[i] {
			d.deficit[i] += d.quantum[i]
		}
	}
	d.OnDequeue(i, size, nowEmpty)
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
	if err := checkQueues("WRR", len(weights)); err != nil {
		return nil, err
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("sched: WRR weight of queue %d is %d, must be positive", i, w)
		}
	}
	return &WRR{weights: append([]int64(nil), weights...)}, nil
}

// Pick implements Scheduler.
func (w *WRR) Pick(backlog uint64, _ View) int {
	if backlog == 0 {
		return -1
	}
	for iter := 0; iter <= len(w.weights); iter++ {
		if backlog&(1<<w.cur) != 0 && w.served < w.weights[w.cur] {
			return w.cur
		}
		w.advance()
	}
	panic(wrrStuck)
}

const wrrStuck = "sched: WRR failed to select a backlogged queue"

// Select is Pick with the backlog word read off v.
func (w *WRR) Select(v View) int { return w.Pick(Backlog(v), v) }

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

// ServeLone implements Scheduler: Pick's walk with queue i alone backlogged
// advances round to i unless i is current with quota left.
func (w *WRR) ServeLone(i int, size units.ByteSize, nowEmpty bool) {
	if i >= len(w.weights) {
		panic(wrrStuck)
	}
	if w.cur != i || w.served >= w.weights[i] {
		w.advance()
		for w.cur != i {
			w.advance()
		}
	}
	w.OnDequeue(i, size, nowEmpty)
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

// Pick implements Scheduler.
func (*SPQ) Pick(backlog uint64, _ View) int {
	if backlog == 0 {
		return -1
	}
	return bits.TrailingZeros64(backlog)
}

// Select is Pick with the backlog word read off v.
func (s *SPQ) Select(v View) int { return s.Pick(Backlog(v), v) }

// OnDequeue implements Scheduler.
func (*SPQ) OnDequeue(int, units.ByteSize, bool) {}

// ServeLone implements Scheduler.
func (*SPQ) ServeLone(int, units.ByteSize, bool) {}

// SPQDRR is the hybrid of §V-A2: queues [0, prio) are strict-priority
// (shared high-priority queues), and the remaining queues are DRR among
// themselves, served only when every priority queue is empty. "Packets in
// the DRR queues can be dequeued only when the SPQ queue is empty."
type SPQDRR struct {
	prio int
	drr  DRR
}

// NewSPQDRR builds the hybrid: prio strict queues above a DRR over the
// remaining len(quantums) queues. Queue indices seen by callers cover the
// whole port: [0, prio) strict, [prio, prio+len(quantums)) DRR.
func NewSPQDRR(prio int, quantums []units.ByteSize) (*SPQDRR, error) {
	qd := make([]units.ByteSize, 2*len(quantums))
	copy(qd, quantums)
	return newSPQDRR(prio, qd)
}

// newSPQDRR is NewSPQDRR over a DRR that keeps qd (see DRR.init).
func newSPQDRR(prio int, qd []units.ByteSize) (*SPQDRR, error) {
	if prio <= 0 {
		return nil, fmt.Errorf("sched: SPQDRR needs at least one priority queue, got %d", prio)
	}
	s := &SPQDRR{prio: prio}
	if err := s.drr.init(qd); err != nil {
		return nil, err
	}
	if err := checkQueues("SPQDRR", prio+len(s.drr.quantum)); err != nil {
		return nil, err
	}
	return s, nil
}

// Pick implements Scheduler.
func (s *SPQDRR) Pick(backlog uint64, v View) int {
	if strict := backlog & lowBits(s.prio); strict != 0 {
		return bits.TrailingZeros64(strict)
	}
	if i := s.drr.pickFrom(backlog>>s.prio, v, s.prio); i >= 0 {
		return i + s.prio
	}
	return -1
}

// Select is Pick with the backlog word read off v.
func (s *SPQDRR) Select(v View) int { return s.Pick(Backlog(v), v) }

// OnDequeue implements Scheduler.
func (s *SPQDRR) OnDequeue(i int, size units.ByteSize, nowEmpty bool) {
	if i >= s.prio {
		s.drr.OnDequeue(i-s.prio, size, nowEmpty)
	}
}

// ServeLone implements Scheduler: a strict queue changes nothing, a DRR queue
// is the DRR's lone queue.
func (s *SPQDRR) ServeLone(i int, size units.ByteSize, nowEmpty bool) {
	if i >= s.prio {
		s.drr.ServeLone(i-s.prio, size, nowEmpty)
	}
}
