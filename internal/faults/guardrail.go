package faults

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/core"
	"dynaq/internal/netsim"
	"dynaq/internal/units"
)

// Violation is one failed runtime invariant check, with enough context to
// reproduce it.
type Violation struct {
	At   units.Time
	Port string
	// Scheme is the port's admission scheme, so a run that mixes schemes
	// reports its violations per scheme.
	Scheme string
	Check  string
	// Msg says what the check found, as its error reads.
	Msg string
}

// String renders the violation for logs and CLI output.
func (v Violation) String() string {
	return fmt.Sprintf("%v %s (%s) [%s]: %s", v.At, v.Port, v.Scheme, v.Check, v.Msg)
}

// Guardrail audits DynaQ's accounting invariants on every port event while
// faults churn the network: Σ T_i == B and T_i ≥ 0 (Algorithm 1's conserved
// quantities), occupancy ≤ B, per-queue byte accounting, and shared-pool
// reservations. On a DynaQ-family port it also checks the property the paper
// is named for, one event at a time (see transition): a threshold moves only
// as Algorithm 1 moves it, and never at the cost of an unsatisfied active
// queue. Violations are recorded as structured records instead of
// panicking, so an experiment under fault injection reports corruption
// rather than silently producing wrong numbers.
//
// Occupancy on a DynaQ port is allowed to transiently exceed B by the stale
// backlog Σ max(0, q_i − T_i): when Algorithm 1 slashes a victim's
// threshold below its standing queue, the already-buffered bytes drain at
// line rate rather than being evicted (§III-B), so a strict occupancy ≤ B
// check would flag the algorithm's documented behaviour. Every other scheme
// gets the strict check.
type Guardrail struct {
	max        int
	total      int64
	violations []Violation

	ports []*guardedPort
}

type guardedPort struct {
	label  string
	port   *netsim.Port
	scheme string

	// st is the port's Algorithm 1 state (nil off the DynaQ family); t and
	// resizes are its T vector and SetBuffer count as of the previous port
	// event.
	st      *core.State
	t       []units.ByteSize
	resizes int
}

// NewGuardrail builds a guardrail retaining at most maxRecorded violations
// (further ones are counted but not stored).
func NewGuardrail(maxRecorded int) *Guardrail {
	if maxRecorded <= 0 {
		maxRecorded = 64
	}
	return &Guardrail{max: maxRecorded}
}

// Watch installs the guardrail on a port (chained after any existing hook),
// checking invariants on every subsequent port event.
func (g *Guardrail) Watch(label string, p *netsim.Port) {
	gp := &guardedPort{label: label, port: p, scheme: p.Admission().Name()}
	if ts, ok := p.Admission().(buffer.ThresholdState); ok {
		gp.st = ts.State()
		gp.rebase()
	}
	g.ports = append(g.ports, gp)
	p.AddEventHook(func(ev netsim.PortEvent) {
		g.check(gp, ev.At)
		if gp.st != nil {
			g.transition(gp, ev)
		}
	})
}

// rebase takes the port's current thresholds as the snapshot the next event
// is checked against.
func (gp *guardedPort) rebase() {
	gp.resizes = gp.st.Resizes()
	gp.t = gp.t[:0]
	for i := 0; i < gp.st.NumQueues(); i++ {
		gp.t = append(gp.t, gp.st.Threshold(i))
	}
}

// transition checks that the thresholds moved between the previous port
// event and ev exactly as Algorithm 1 moves them for ev's packet on its
// queue (core.State.CheckTransition). A SetBuffer re-initialisation since
// the previous event re-bases the snapshot instead.
func (g *Guardrail) transition(gp *guardedPort, ev netsim.PortEvent) {
	defer gp.rebase()
	if gp.st.Resizes() != gp.resizes {
		return
	}
	if err := gp.st.CheckTransition(gp.t, ev.Queue, ev.Pkt.Size, gp.port); err != nil {
		g.report(ev.At, gp, "transition", fmt.Errorf("%s on queue %d (size %d): %v", ev.Kind, ev.Queue, ev.Pkt.Size, err))
	}
}

func (g *Guardrail) check(gp *guardedPort, at units.Time) {
	p := gp.port
	// Per-queue byte accounting: the queues must sum to the port total.
	var qsum units.ByteSize
	for i := 0; i < p.NumQueues(); i++ {
		q := p.QueueLen(i)
		if q < 0 {
			g.report(at, gp, "queue-bytes", fmt.Errorf("queue %d length %d < 0", i, q))
		}
		qsum += q
	}
	if qsum != p.TotalLen() {
		g.report(at, gp, "queue-bytes",
			fmt.Errorf("Σ queue lengths %d != port total %d", qsum, p.TotalLen()))
	}

	// Occupancy ≤ B, with the DynaQ stale-backlog allowance.
	limit := p.Buffer()
	st := gp.st
	if st != nil {
		for i := 0; i < p.NumQueues() && i < st.NumQueues(); i++ {
			if over := p.QueueLen(i) - st.Threshold(i); over > 0 {
				limit += over
			}
		}
	}
	if p.TotalLen() > limit {
		g.report(at, gp, "occupancy",
			fmt.Errorf("occupancy %d exceeds buffer %d (allowed %d)", p.TotalLen(), p.Buffer(), limit))
	}

	// Algorithm 1's conserved quantities: Σ T_i == B, T_i ≥ 0.
	if st != nil {
		if err := st.CheckInvariants(); err != nil {
			g.report(at, gp, "thresholds", err)
		}
	}

	// Shared-memory accounting: the pool can never be over-reserved, and
	// this port's buffered bytes must be covered by reservations.
	if pool := p.Pool(); pool != nil {
		if pool.Used() > pool.Total() {
			g.report(at, gp, "pool",
				fmt.Errorf("pool used %d exceeds total %d", pool.Used(), pool.Total()))
		}
		if p.TotalLen() > pool.Used() {
			g.report(at, gp, "pool",
				fmt.Errorf("port holds %d bytes but pool has only %d reserved", p.TotalLen(), pool.Used()))
		}
	}
}

func (g *Guardrail) report(at units.Time, gp *guardedPort, check string, err error) {
	g.total++
	if len(g.violations) < g.max {
		g.violations = append(g.violations, Violation{At: at, Port: gp.label, Scheme: gp.scheme, Check: check, Msg: err.Error()})
	}
}

// Recheck re-runs the invariant checks on every watched port at the current
// state (useful as a final sweep after a run completes).
func (g *Guardrail) Recheck(now units.Time) {
	for _, gp := range g.ports {
		g.check(gp, now)
	}
}

// Total returns how many violations were detected (recorded or not).
func (g *Guardrail) Total() int64 { return g.total }

// Violations returns the recorded violations, oldest first.
func (g *Guardrail) Violations() []Violation {
	return append([]Violation(nil), g.violations...)
}

// Err summarizes the guardrail outcome: nil when no invariant was ever
// violated, otherwise an error naming the first violation and the count.
func (g *Guardrail) Err() error {
	if g.total == 0 {
		return nil
	}
	return fmt.Errorf("faults: %d invariant violation(s), first: %v", g.total, g.violations[0])
}
