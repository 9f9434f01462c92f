// Package core implements DynaQ (Kim & Lee, ICDCS 2020): protocol-independent
// service-queue isolation through dynamic per-queue packet dropping
// thresholds.
//
// Notation follows Table I of the paper:
//
//	M        number of service queues
//	B        port buffer size
//	w_i      weight of queue i
//	T_i      packet dropping threshold of queue i
//	q_i      queue length (backlog in bytes) of queue i
//	S_i      satisfaction threshold of queue i  (Eq. 3: B·w_i/Σw)
//	T_i^ex   extra buffer of queue i            (Eq. 2: T_i − S_i)
//
// On every arrival of a packet P for queue p, Algorithm 1 runs:
//
//	if q_p + size(P) > T_p:
//	    v ← argmax_{i≠p} T_i^ex                     (loop-free MaxIdx tree)
//	    if T_v < size(P) or (q_v > 0 and T_v − size(P) < S_v):
//	        drop P                                  (protect unsatisfied
//	                                                 active queues)
//	    else:
//	        T_v ← T_v − size(P);  T_p ← T_p + size(P)
//
// The decrement-before-increment order preserves the global invariant
// Σ T_i = B at every instant. After Algorithm 1, enqueueing is decided by
// port buffer occupancy (Σ q_i + size ≤ B), which the buffer-manager layer
// performs.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"dynaq/internal/units"
)

// Verdict is the outcome of running Algorithm 1 for an arriving packet.
type Verdict uint8

// Verdicts. Note that Pass/Adjusted only mean Algorithm 1 did not drop; the
// caller still applies the port-occupancy admission check.
const (
	// Pass: the packet fits under its queue's current threshold; no
	// adjustment was needed.
	Pass Verdict = iota
	// Adjusted: the threshold of the packet's queue was raised at the
	// expense of the victim queue.
	Adjusted
	// Drop: the victim queue could not give up buffer (it is an
	// unsatisfied active queue, or its threshold is smaller than the
	// packet); the packet must be dropped.
	Drop
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Adjusted:
		return "adjusted"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// Result carries the verdict plus the victim chosen (for Adjusted and for
// Drop-because-of-victim), for tracing and tests. Victim is -1 when no
// victim search ran (Pass) or none existed.
type Result struct {
	Verdict Verdict
	Victim  int
}

// State is the per-port DynaQ state: one threshold per service queue.
// It is not safe for concurrent use; the simulator is single-goroutine.
type State struct {
	b    units.ByteSize
	sumW int64
	t    []units.ByteSize // T_i
	s    []units.ByteSize // S_i
	// w holds the weights w_i. They are plain numbers, kept in T and S's
	// backing array so that a port's threshold state is one allocation
	// besides the State itself; read them through int64.
	w []units.ByteSize

	// Ablation knobs (see options.go); zero values are the paper's
	// design: extra-buffer victim selection and S_i = B·w_i/Σw.
	victimPolicy    VictimPolicy
	satisfactionBDP units.ByteSize // 0 = Eq. 3; >0 = S_i = BDP·w_i/Σw

	resizes int // SetBuffer calls so far
}

// New builds DynaQ state for a port with buffer b shared by len(weights)
// service queues. Weights are the scheduler weights/quantums (integers, as
// DRR quantums are); they need not be normalized.
//
// Initialization follows Eq. (1): T_i = B·w_i/Σw, with integer rounding
// residue distributed by the largest-remainder method so that Σ T_i = B
// exactly. The options (options.go) then apply in order; the paper's design
// takes none.
func New(b units.ByteSize, weights []int64, opts ...Option) (*State, error) {
	if b <= 0 {
		return nil, fmt.Errorf("core: buffer size %d must be positive", b)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("core: need at least one queue")
	}
	var sum int64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("core: weight of queue %d is %d, must be positive", i, w)
		}
		sum += w
		// Eq. 1 multiplies B by a weight: B·Σw must fit 64 bits.
		if sum < 0 || int64(b) > math.MaxInt64/sum {
			return nil, fmt.Errorf("core: buffer %d times the weights' sum overflows 64 bits", b)
		}
	}
	n := len(weights)
	back := make([]units.ByteSize, 3*n)
	st := &State{b: b, sumW: sum, t: back[:n:n], s: back[n : 2*n : 2*n], w: back[2*n:]}
	for i, w := range weights {
		st.w[i] = units.ByteSize(w)
	}
	st.reinit()
	for _, o := range opts {
		if err := o.apply(st); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// MustNew is New but panics on error; for tests and literals-only callers.
func MustNew(b units.ByteSize, weights []int64) *State {
	st, err := New(b, weights)
	if err != nil {
		panic(err)
	}
	return st
}

// reinit computes S_i and resets T_i to the weighted split of B (Eq. 1 and
// Eq. 3 coincide at initialization time). It allocates nothing.
func (st *State) reinit() {
	var assigned units.ByteSize
	for i, w := range st.w {
		share := units.ByteSize(int64(st.b) * int64(w) / st.sumW)
		st.t[i], st.s[i] = share, share
		assigned += share
	}
	// Largest-remainder method: hand out the residue one byte at a time,
	// biggest fractional part first, ties by lower index. Each byte goes to
	// the queue that comes next in that order after the one the last byte
	// went to, so no queue needs marking as served.
	last, lastRem := -1, int64(0)
	for left := st.b - assigned; left > 0; left-- {
		best, bestRem := -1, int64(0)
		for j := range st.w {
			rem := st.rem(j)
			if last >= 0 && (rem > lastRem || rem == lastRem && j <= last) {
				continue // served already
			}
			if best == -1 || rem > bestRem {
				best, bestRem = j, rem
			}
		}
		st.t[best]++
		st.s[best]++
		last, lastRem = best, bestRem
	}
	if st.satisfactionBDP > 0 {
		// WBDP ablation: satisfaction thresholds use the weighted BDP
		// while dropping thresholds still split the whole buffer.
		for i, w := range st.w {
			st.s[i] = units.ByteSize(int64(st.satisfactionBDP) * int64(w) / st.sumW)
		}
	}
}

// rem is the fractional part of queue i's share B·w_i/Σw, in units of 1/Σw.
func (st *State) rem(i int) int64 { return int64(st.b) * int64(st.w[i]) % st.sumW }

// NumQueues returns M.
func (st *State) NumQueues() int { return len(st.t) }

// Buffer returns the port buffer size B.
func (st *State) Buffer() units.ByteSize { return st.b }

// Threshold returns T_i, the current packet dropping threshold of queue i.
func (st *State) Threshold(i int) units.ByteSize { return st.t[i] }

// Satisfaction returns S_i (Eq. 3).
func (st *State) Satisfaction(i int) units.ByteSize { return st.s[i] }

// Extra returns T_i^ex = T_i − S_i (Eq. 2). It is negative for unsatisfied
// queues.
func (st *State) Extra(i int) units.ByteSize { return st.t[i] - st.s[i] }

// Weight returns w_i.
func (st *State) Weight(i int) int64 { return int64(st.w[i]) }

// Satisfied reports whether queue i currently holds at least its
// satisfaction threshold worth of dropping budget (footnote 1 of the paper).
func (st *State) Satisfied(i int) bool { return st.t[i] >= st.s[i] }

// SetBuffer changes the port buffer size and re-initializes all thresholds
// per Eq. (1), restoring Σ T_i = B (§III-B3 "Port Buffer Size").
func (st *State) SetBuffer(b units.ByteSize) error {
	if b <= 0 {
		return fmt.Errorf("core: buffer size %d must be positive", b)
	}
	if int64(b) > math.MaxInt64/st.sumW {
		return fmt.Errorf("core: buffer %d times the weights' sum overflows 64 bits", b)
	}
	st.b = b
	st.resizes++
	st.reinit()
	return nil
}

// Resizes counts SetBuffer calls, so an observer comparing thresholds across
// time can tell Algorithm 1's moves from a re-initialisation.
func (st *State) Resizes() int { return st.resizes }

// QueueLens provides the instantaneous backlog q_i of each queue to
// Algorithm 1. It is an interface rather than a slice so the switch port can
// expose its live byte counters without copying per packet.
type QueueLens interface {
	// QueueLen returns the buffered bytes of service queue i.
	QueueLen(i int) units.ByteSize
}

// QueueLenFunc adapts a function to the QueueLens interface.
type QueueLenFunc func(i int) units.ByteSize

// QueueLen implements QueueLens.
func (f QueueLenFunc) QueueLen(i int) units.ByteSize { return f(i) }

// Process runs Algorithm 1 for a packet of the given size arriving for
// queue p. It mutates thresholds on the Adjusted path and reports the
// verdict. Process never inspects or mutates the queues themselves: the
// caller (the port) owns enqueueing, which it must gate on port occupancy.
func (st *State) Process(p int, size units.ByteSize, q QueueLens) Result {
	if p < 0 || p >= len(st.t) {
		panic(fmt.Sprintf("core: queue index %d out of range [0,%d)", p, len(st.t)))
	}
	if size <= 0 {
		panic(fmt.Sprintf("core: packet size %d must be positive", size))
	}
	// Line 1: within threshold — nothing to do.
	if q.QueueLen(p)+size <= st.t[p] {
		return Result{Verdict: Pass, Victim: -1}
	}
	// Line 2: find the victim — the queue (other than p) with the largest
	// extra buffer T_i^ex.
	v := st.victimTournament(p)
	if v < 0 {
		// Single-queue port: T_p == B, so exceeding the threshold means
		// exceeding the buffer.
		return Result{Verdict: Drop, Victim: -1}
	}
	// Line 3: protect unsatisfied active queues, and keep T_v ≥ 0.
	if st.t[v] < size || (q.QueueLen(v) > 0 && st.t[v]-size < st.s[v]) {
		return Result{Verdict: Drop, Victim: v}
	}
	// Lines 6–7: decrease the victim first, then grow p, preserving ΣT = B.
	st.t[v] -= size
	st.t[p] += size
	return Result{Verdict: Adjusted, Victim: v}
}

// victimTournament finds argmax_{i≠p} T_i^ex with the loop-free binary
// reduction of §III-B ("Victim Queue Search without Loops"): a tree of
// MaxIdx comparators of depth ⌈log2 M⌉. Ties resolve to the lower index,
// matching the left-biased comparator a hardware tree would synthesize.
// It returns -1 when no candidate exists (M == 1).
func (st *State) victimTournament(p int) int {
	m := len(st.t)
	if m == 1 {
		return -1
	}
	// Round m up to a power of two; absent leaves and the excluded queue p
	// are -1 (treated as −∞ by maxIdx), exactly how a fixed-width hardware
	// tree pads unused inputs.
	width := 1 << uint(bits.Len(uint(m-1)))
	// Stack allocation for the common hardware sizes (≤ 8 queues).
	var buf [8]int
	var layer []int
	if width <= len(buf) {
		layer = buf[:width]
	} else {
		layer = make([]int, width)
	}
	for i := range layer {
		if i < m && i != p {
			layer[i] = i
		} else {
			layer[i] = -1
		}
	}
	for n := width; n > 1; n /= 2 {
		for i := 0; i < n/2; i++ {
			layer[i] = st.maxIdx(layer[2*i], layer[2*i+1])
		}
	}
	return layer[0]
}

// maxIdx is the two-input comparator from the paper: it returns the index
// whose victim metric (extra buffer T^ex, or raw T under the ablation
// policy) is larger, preferring the left input on ties.
func (st *State) maxIdx(a, b int) int {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case st.victimMetric(b) > st.victimMetric(a):
		return b
	default:
		return a
	}
}

// victimMetric is the quantity the victim search maximizes.
func (st *State) victimMetric(i int) units.ByteSize {
	if st.victimPolicy == VictimMaxThreshold {
		return st.t[i]
	}
	return st.t[i] - st.s[i]
}

// CheckInvariants verifies Σ T_i = B and T_i ≥ 0; it returns a descriptive
// error on violation. Property tests call it after every operation.
func (st *State) CheckInvariants() error {
	var sum units.ByteSize
	for i, t := range st.t {
		if t < 0 {
			return fmt.Errorf("core: T_%d = %d < 0", i, t)
		}
		sum += t
	}
	if sum != st.b {
		return fmt.Errorf("core: ΣT = %d, want B = %d", sum, st.b)
	}
	return nil
}

// CheckTransition checks that the thresholds moved from prev exactly as
// Algorithm 1 moves them for one packet of size bytes on queue p, queue
// lengths q as they are now: either not at all, or T_p rose by size while
// exactly one T_v fell by size, where v is the victim the algorithm's rule
// picks on prev (the state's VictimPolicy, lower index on ties), and
// afterwards q_v = 0 or T_v ≥ S_v — a queue is never robbed below its
// satisfaction threshold while it holds packets. The victim is found by a
// linear scan, not the tournament Process runs. A SetBuffer since prev was
// taken is outside what it can check.
func (st *State) CheckTransition(prev []units.ByteSize, p int, size units.ByteSize, q QueueLens) error {
	moved, first, second := 0, -1, -1
	for i, t := range prev {
		if st.t[i] != t {
			moved++
			first, second = second, i
		}
	}
	if moved == 0 {
		return nil
	}
	if moved != 2 || p < 0 || p >= len(prev) || st.t[p]-prev[p] != size {
		return fmt.Errorf("%d thresholds moved from %v", moved, prev)
	}
	v := first
	if v == p {
		v = second
	}
	if st.t[v] != prev[v]-size {
		return fmt.Errorf("T_%d went %d → %d, want a fall of %d", v, prev[v], st.t[v], size)
	}
	// Algorithm 1's line 2 on prev: argmax over i ≠ p of the policy's
	// metric, the lower index on ties.
	want := -1
	var wantM units.ByteSize
	for i, t := range prev {
		m := t
		if st.victimPolicy == VictimMaxExtra {
			m -= st.s[i]
		}
		if i != p && (want < 0 || m > wantM) {
			want, wantM = i, m
		}
	}
	if v != want {
		return fmt.Errorf("T_%d paid, but the victim rule picks queue %d", v, want)
	}
	if ql := q.QueueLen(v); ql > 0 && st.t[v] < st.s[v] {
		return fmt.Errorf("robbed active queue %d (q=%d) below its satisfaction: T=%d < S=%d", v, ql, st.t[v], st.s[v])
	}
	return nil
}

// String renders the threshold state compactly for debugging:
// per queue T/S/extra plus the ΣT=B check.
func (st *State) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DynaQ[B=%d", int64(st.b))
	var sum units.ByteSize
	for i := range st.t {
		fmt.Fprintf(&b, " q%d:T=%d,S=%d,ex=%+d", i, st.t[i], st.s[i], st.t[i]-st.s[i])
		sum += st.t[i]
	}
	fmt.Fprintf(&b, " ΣT=%d]", int64(sum))
	return b.String()
}
