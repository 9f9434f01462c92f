// Package buffer implements the multi-queue buffer-management schemes the
// paper compares (§II-C, §V):
//
//   - BestEffort — the shared-buffer baseline: admit while the port buffer
//     has room, first come first buffered.
//   - PQL — per-queue static limits ("per-queue length"): each service
//     queue owns a fixed quota; isolating but not work-conserving.
//   - DynaQ — the paper's contribution, wrapping internal/core.
//   - Per-Queue ECN — standard DCTCP-style marking per queue.
//   - PMSB — per-port marking with selective blindness (ICDCS'18): mark
//     only when port AND queue thresholds are both exceeded.
//   - MQ-ECN — round-time-scaled per-queue marking (NSDI'16).
//   - TCN — sojourn-time dequeue marking (CoNEXT'16), plus the
//     drop-at-dequeue variant §II-C argues against (kept as an ablation).
//
// A scheme is an Admission policy plus optionally enqueue/dequeue marking
// hooks; the switch port drives them.
package buffer

import (
	"fmt"
	"math"

	"dynaq/internal/core"
	"dynaq/internal/units"
)

// ThresholdState is implemented by the DynaQ-family schemes (DynaQ,
// DynaQTofino), which expose their Algorithm-1 threshold state to the
// guardrail and to the runs' telemetry.
type ThresholdState interface {
	State() *core.State
}

// View is the port state an admission or marking decision may consult.
type View interface {
	// NumQueues returns the number of service queues of the port.
	NumQueues() int
	// QueueLen returns queue i's backlog in bytes.
	QueueLen(i int) units.ByteSize
	// TotalLen returns the port buffer occupancy in bytes (Σ q_i).
	TotalLen() units.ByteSize
	// Buffer returns the port buffer size B.
	Buffer() units.ByteSize
}

// Admission decides whether an arriving packet may be enqueued.
type Admission interface {
	// Name identifies the scheme in result tables.
	Name() string
	// Admit reports whether a packet of the given size arriving for
	// service queue cls may be buffered.
	Admit(v View, cls int, size units.ByteSize) bool
}

// EnqueueMarker is implemented by schemes that CE-mark at enqueue time.
type EnqueueMarker interface {
	// MarkOnEnqueue reports whether the arriving packet must be CE-marked.
	// It is called only for packets that were admitted, with the queue
	// state observed before the packet is enqueued.
	MarkOnEnqueue(v View, cls int, size units.ByteSize) bool
}

// DequeueMarker is implemented by schemes that mark at dequeue time based on
// the packet's sojourn through the queue (TCN).
type DequeueMarker interface {
	// MarkOnDequeue reports whether the departing packet must be CE-marked
	// given its queue sojourn time.
	MarkOnDequeue(cls int, sojourn units.Duration) bool
}

// DequeueDropper is implemented by the TCN-drop ablation: drop the departing
// packet instead of marking it. §II-C explains why this wastes link time.
type DequeueDropper interface {
	// DropOnDequeue reports whether the departing packet must be discarded.
	DropOnDequeue(cls int, sojourn units.Duration) bool
}

// DequeueObserver is implemented by schemes that need to observe dequeue
// operations: MQ-ECN estimates the scheduler round time from the service
// order, and the Tofino model snapshots deq_qdepth. The view reflects the
// port state after the packet left the queue.
type DequeueObserver interface {
	// ObserveDequeue is called after every dequeue with the served queue,
	// the departed size, and the current simulated time.
	ObserveDequeue(v View, cls int, size units.ByteSize, now units.Time)
}

// BestEffort shares the port buffer in a first-come-first-buffered manner:
// a packet is admitted while the port has room, with no per-queue
// accounting. This is the baseline whose unfairness motivates the paper
// (Fig. 1).
type BestEffort struct{}

// NewBestEffort returns the shared-buffer baseline.
func NewBestEffort() *BestEffort { return &BestEffort{} }

// Name implements Admission.
func (*BestEffort) Name() string { return "BestEffort" }

// Admit implements Admission.
func (*BestEffort) Admit(v View, _ int, size units.ByteSize) bool {
	return v.TotalLen()+size <= v.Buffer()
}

// PQL reserves a static buffer quota per service queue ("Per-Queue Limit").
// Each queue enjoys its share regardless of others, but a queue can never
// use free buffer beyond its quota, so the scheme is not work-conserving
// (§II-C).
type PQL struct {
	quota []units.ByteSize
}

// NewPQL builds PQL from explicit per-queue quotas.
func NewPQL(quotas []units.ByteSize) (*PQL, error) {
	if len(quotas) == 0 {
		return nil, fmt.Errorf("buffer: PQL needs at least one queue")
	}
	for i, q := range quotas {
		if q <= 0 {
			return nil, fmt.Errorf("buffer: PQL quota of queue %d is %d, must be positive", i, q)
		}
	}
	return &PQL{quota: append([]units.ByteSize(nil), quotas...)}, nil
}

// NewWeightedPQL splits buffer b across queues in proportion to the
// scheduler weights — the static analogue of DynaQ's initialization.
func NewWeightedPQL(b units.ByteSize, weights []int64) (*PQL, error) {
	if b <= 0 {
		return nil, fmt.Errorf("buffer: PQL buffer %d must be positive", b)
	}
	quotas, err := weightedSplit("PQL", b, weights)
	if err != nil {
		return nil, err
	}
	return NewPQL(quotas)
}

// weightedSplit divides total across queues in proportion to their weights,
// total·w_i/Σw rounded down: PQL's quotas and PMSB's K_i. Like core.New, it
// refuses weights whose sum, or whose sum times total, overflows 64 bits:
// the split would wrap to zero or negative parts.
func weightedSplit(scheme string, total units.ByteSize, weights []int64) ([]units.ByteSize, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("buffer: %s needs at least one queue", scheme)
	}
	var sum int64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("buffer: weight of queue %d is %d, must be positive", i, w)
		}
		sum += w
		if sum < 0 || int64(total) > math.MaxInt64/sum {
			return nil, fmt.Errorf("buffer: %s: %d times the weights' sum overflows 64 bits", scheme, total)
		}
	}
	parts := make([]units.ByteSize, len(weights))
	for i, w := range weights {
		parts[i] = units.ByteSize(int64(total) * w / sum)
	}
	return parts, nil
}

// Name implements Admission.
func (*PQL) Name() string { return "PQL" }

// Admit implements Admission.
func (p *PQL) Admit(v View, cls int, size units.ByteSize) bool {
	return v.QueueLen(cls)+size <= p.quota[cls]
}

// Quota returns queue i's static limit.
func (p *PQL) Quota(i int) units.ByteSize { return p.quota[i] }

// DynaQ adapts core.State to the Admission interface: Algorithm 1 first,
// then the enqueue check against the queue's (possibly just-raised) dynamic
// threshold.
//
// On the enqueue check: §IV-B says the switch enqueues "based on the port
// buffer occupancy or per-queue buffer occupancy relying on switch
// configuration" — and DynaQ's configuration is the per-queue dynamic
// threshold. Since Σ T_i = B, per-queue admission implies Σ q_i ≤ B, except
// transiently when a victim queue's threshold was slashed below its
// standing backlog; that backlog drains within one buffer-worth of link
// time. Checking raw port occupancy instead would let such a stale backlog
// permanently veto the protected queue's (legitimately budgeted) arrivals —
// the aggressor keeps the SRAM it no longer owns, and a drained victim
// whose retransmissions always find the port full never becomes "active"
// again, a starvation loop the threshold protection exists to prevent. The
// paper's qdisc prototype has the same accounting-only buffer, where the
// transient overshoot is harmless.
type DynaQ struct {
	state *core.State
	name  string
	// lens adapts the current View to core.QueueLens without a per-packet
	// interface allocation (hot path: every arrival).
	lens viewLens
	li   core.QueueLens

	// Telemetry counters (plain int64s so the hot path never touches the
	// registry; internal/netsim exposes them as counter funcs).
	adjustments int64
	algDrops    int64
	satisfied   []satisfaction
}

// satisfaction is one queue's footnote-1 state as DynaQ last saw it, and how
// often it flipped.
type satisfaction struct {
	now   bool  // T_i ≥ S_i
	edges int64 // satisfied↔unsatisfied transitions
}

// NewDynaQ builds the DynaQ scheme for a port with buffer b and scheduler
// weights; opts are Algorithm 1's ablation options (victim policy, WBDP
// satisfaction), whose rows in the scheme table rename the result. Every
// queue starts satisfied, as initialization sets T_i = S_i (Eq. 1 and Eq. 3
// coincide), except under the WBDP ablation where S_i may exceed the
// initial T_i.
func NewDynaQ(b units.ByteSize, weights []int64, opts ...core.Option) (*DynaQ, error) {
	st, err := core.New(b, weights, opts...)
	if err != nil {
		return nil, err
	}
	d := &DynaQ{state: st, name: "DynaQ", satisfied: make([]satisfaction, st.NumQueues())}
	for i := range d.satisfied {
		d.satisfied[i].now = st.Satisfied(i)
	}
	d.li = &d.lens
	return d, nil
}

// noteSatisfaction counts a satisfied↔unsatisfied edge of queue i — the
// paper's per-instant "satisfied" state (footnote 1), surfaced so telemetry
// can report how often protection engages.
func (d *DynaQ) noteSatisfaction(i int) {
	if i < 0 {
		return
	}
	if s := &d.satisfied[i]; s.now != d.state.Satisfied(i) {
		s.now = !s.now
		s.edges++
	}
}

// Adjustments counts Algorithm 1 threshold recomputations (Adjusted
// verdicts: one victim decrement plus one growth per adjustment).
func (d *DynaQ) Adjustments() int64 { return d.adjustments }

// AlgorithmDrops counts packets Algorithm 1 itself refused (victim
// protection), as opposed to the port-level post-adjustment check.
func (d *DynaQ) AlgorithmDrops() int64 { return d.algDrops }

// SatisfiedTransitions counts queue i's satisfied↔unsatisfied edges.
func (d *DynaQ) SatisfiedTransitions(i int) int64 { return d.satisfied[i].edges }

// Name implements Admission.
func (d *DynaQ) Name() string { return d.name }

// State exposes the underlying threshold state for traces and tests.
func (d *DynaQ) State() *core.State { return d.state }

// Admit implements Admission.
func (d *DynaQ) Admit(v View, cls int, size units.ByteSize) bool {
	// Algorithm 1's line 1, which Process would run first on a valid
	// arrival: a packet within its queue's threshold passes and leaves every
	// threshold alone, and the post-check below is then the same comparison.
	if cls >= 0 && cls < d.state.NumQueues() && size > 0 && v.QueueLen(cls)+size <= d.state.Threshold(cls) {
		return true
	}
	d.lens.v = v
	res := d.state.Process(cls, size, d.li)
	switch res.Verdict {
	case core.Adjusted:
		d.adjustments++
		d.noteSatisfaction(cls)
		d.noteSatisfaction(res.Victim)
	case core.Drop:
		d.algDrops++
	}
	if res.Verdict == core.Drop {
		return false
	}
	// Post-adjustment per-queue check. After Pass this always holds; after
	// Adjusted it fails only when the queue's own threshold had been
	// slashed below its backlog while it was a victim.
	return v.QueueLen(cls)+size <= d.state.Threshold(cls)
}

// viewLens adapts a buffer.View to core.QueueLens; schemes hold one and
// repoint it per call so the hot path stays allocation-free.
type viewLens struct{ v View }

func (l *viewLens) QueueLen(i int) units.ByteSize { return l.v.QueueLen(i) }

// PerQueueECN is conventional DCTCP-style marking applied independently per
// service queue: mark when the queue's standing backlog would exceed K_i.
// Buffer admission is best-effort.
type PerQueueECN struct {
	BestEffort

	k []units.ByteSize
}

// NewPerQueueECN builds per-queue marking with the same threshold k for
// every one of n queues.
func NewPerQueueECN(n int, k units.ByteSize) (*PerQueueECN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("buffer: PerQueueECN needs at least one queue")
	}
	if k <= 0 {
		return nil, fmt.Errorf("buffer: PerQueueECN threshold %d must be positive", k)
	}
	ks := make([]units.ByteSize, n)
	for i := range ks {
		ks[i] = k
	}
	return &PerQueueECN{k: ks}, nil
}

// Name implements Admission.
func (*PerQueueECN) Name() string { return "PerQueueECN" }

// MarkOnEnqueue implements EnqueueMarker.
func (p *PerQueueECN) MarkOnEnqueue(v View, cls int, size units.ByteSize) bool {
	return v.QueueLen(cls)+size > p.k[cls]
}

// PMSB marks a packet only when the per-port and per-queue marking
// conditions hold simultaneously (Pan et al., ICDCS'18): the port occupancy
// (before the packet is enqueued) exceeds K = C·RTT·λ and the arriving
// packet's queue exceeds K_i = (w_i/Σw)·K. It is also DynaQ's ECN mode
// (§III-B3), which differs from PMSB only in name: the scheme table's
// DynaQ-ECN row renames it. λ is the transport coefficient (1 for standard
// ECN, ~0.5–1 for DCTCP), folded into k by the caller. Buffer admission is
// best-effort.
type PMSB struct {
	BestEffort

	k    units.ByteSize
	ki   []units.ByteSize
	name string
}

// NewPMSB builds PMSB marking with port threshold k split across queues by
// weight.
func NewPMSB(k units.ByteSize, weights []int64) (*PMSB, error) {
	if k <= 0 {
		return nil, fmt.Errorf("buffer: PMSB port threshold %d must be positive", k)
	}
	ki, err := weightedSplit("PMSB", k, weights)
	if err != nil {
		return nil, err
	}
	return &PMSB{k: k, ki: ki, name: "PMSB"}, nil
}

// Name implements Admission.
func (p *PMSB) Name() string { return p.name }

// PortThreshold returns K.
func (p *PMSB) PortThreshold() units.ByteSize { return p.k }

// QueueThreshold returns K_i.
func (p *PMSB) QueueThreshold(i int) units.ByteSize { return p.ki[i] }

// MarkOnEnqueue implements EnqueueMarker.
func (p *PMSB) MarkOnEnqueue(v View, cls int, _ units.ByteSize) bool {
	return v.TotalLen() > p.k && v.QueueLen(cls) > p.ki[cls]
}

// TCN marks at dequeue time when the packet's sojourn time through the
// queue exceeds T = RTT·λ (Bai et al., CoNEXT'16). Buffer admission is
// best-effort.
type TCN struct {
	BestEffort

	t units.Duration
}

// NewTCN builds TCN with sojourn threshold t (the paper's testbed uses
// 240µs on 1GbE).
func NewTCN(t units.Duration) (*TCN, error) {
	if t <= 0 {
		return nil, fmt.Errorf("buffer: TCN threshold %v must be positive", t)
	}
	return &TCN{t: t}, nil
}

// Name implements Admission.
func (*TCN) Name() string { return "TCN" }

// MarkOnDequeue implements DequeueMarker.
func (c *TCN) MarkOnDequeue(_ int, sojourn units.Duration) bool {
	return sojourn > c.t
}

// TCNDrop is the "change TCN to drop" strawman of §II-C: discard the
// just-dequeued packet when its sojourn exceeded the threshold. The paper
// rejects it because dropping at dequeue idles the link and adds the full
// sojourn time to the FCT on top of the RTO; it is implemented here to
// reproduce that argument as an ablation.
type TCNDrop struct {
	BestEffort

	t units.Duration
}

// NewTCNDrop builds the dequeue-dropping TCN variant.
func NewTCNDrop(t units.Duration) (*TCNDrop, error) {
	if t <= 0 {
		return nil, fmt.Errorf("buffer: TCNDrop threshold %v must be positive", t)
	}
	return &TCNDrop{t: t}, nil
}

// Name implements Admission.
func (*TCNDrop) Name() string { return "TCNDrop" }

// DropOnDequeue implements DequeueDropper.
func (c *TCNDrop) DropOnDequeue(_ int, sojourn units.Duration) bool {
	return sojourn > c.t
}
