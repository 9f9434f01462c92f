package buffer

import (
	"fmt"
	"strings"

	"dynaq/internal/core"
	"dynaq/internal/sched"
	"dynaq/internal/units"
)

// SchemeParams carries the link-dependent constants the schemes derive
// their thresholds from.
type SchemeParams struct {
	// Rate is the bottleneck link capacity C.
	Rate units.Rate
	// BaseRTT is the topology's base round-trip time.
	BaseRTT units.Duration
	// MTU is the frame size the DRR quantums are counted in (Weights·MTU,
	// as the port scheduler's); zero means 1500.
	MTU units.ByteSize
	// Weights are the scheduler weights/quantums per service queue.
	Weights []int64
	// PerQueueK overrides the Per-Queue ECN / DCTCP threshold. The paper
	// tunes it experimentally (30KB on 1GbE); zero falls back to C·RTT/2.
	PerQueueK units.ByteSize
	// TCNTarget overrides TCN's sojourn threshold; zero derives RTT.
	TCNTarget units.Duration
}

// Resolved returns p with what the caller left unset filled in for a port
// on a link of the given rate, base RTT and frame size with n service
// queues: Rate, BaseRTT and MTU from the link, Weights from weights, or
// equal when that is empty too.
func (p SchemeParams) Resolved(rate units.Rate, rtt units.Duration, mtu units.ByteSize, weights []int64, n int) SchemeParams {
	if p.Rate == 0 {
		p.Rate = rate
	}
	if p.BaseRTT == 0 {
		p.BaseRTT = rtt
	}
	if p.MTU == 0 {
		p.MTU = mtu
	}
	if len(p.Weights) == 0 {
		p.Weights = weights
	}
	if len(p.Weights) == 0 {
		p.Weights = make([]int64, n)
		for i := range p.Weights {
			p.Weights[i] = 1
		}
	}
	return p
}

// markK is the port-level ECN marking threshold C·RTT·λ, at the λ = 1 every
// marking scheme here runs at.
func (p SchemeParams) markK() units.ByteSize { return units.BDP(p.Rate, p.BaseRTT) }

// sojourn is the TCN sojourn-time threshold, RTT·λ at λ = 1.
func (p SchemeParams) sojourn() units.Duration {
	if p.TCNTarget != 0 {
		return p.TCNTarget
	}
	return p.BaseRTT
}

// Scheme is one row of the scheme table: what a buffer-management scheme is
// called, whether it signals congestion by marking (so its flows must run an
// ECN transport), and how to build its per-port instance for a port with
// buffer b and n service queues on a switch with memory mem. Rows that do
// not share switch memory ignore mem.
type Scheme struct {
	Name string
	ECN  bool
	New  func(p SchemeParams, b units.ByteSize, n int, mem *SharedPool) (Admission, error)
}

// schemes is the registry every layer resolves scheme names through. Adding
// a scheme is its file plus one row here.
var schemes = []Scheme{
	// The non-ECN lineup (Fig. 8).
	{"BestEffort", false, func(SchemeParams, units.ByteSize, int, *SharedPool) (Admission, error) {
		return NewBestEffort(), nil
	}},
	{"PQL", false, func(p SchemeParams, b units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		return NewWeightedPQL(b, p.Weights)
	}},
	{"DynaQ", false, func(p SchemeParams, b units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		return NewDynaQ(b, p.Weights)
	}},
	// The ECN lineup evaluated with DCTCP (Fig. 9).
	{"TCN", true, func(p SchemeParams, _ units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		return NewTCN(p.sojourn())
	}},
	{"PMSB", true, func(p SchemeParams, _ units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		return NewPMSB(p.markK(), p.Weights)
	}},
	{"PerQueueECN", true, func(p SchemeParams, _ units.ByteSize, n int, _ *SharedPool) (Admission, error) {
		k := p.PerQueueK
		if k == 0 {
			k = p.markK() / 2
		}
		return NewPerQueueECN(n, k)
	}},
	{"MQ-ECN", true, func(p SchemeParams, _ units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		mtu := p.MTU
		if mtu == 0 {
			mtu = 1500
		}
		return NewMQECN(p.Rate, p.BaseRTT, sched.Quantums(p.Weights, mtu))
	}},
	// The §II-C strawman kept as an ablation.
	{"TCNDrop", false, func(p SchemeParams, _ units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		return NewTCNDrop(p.sojourn())
	}},
	// Ablation variants of DynaQ (§III-B design discussion): victims by
	// largest threshold instead of largest extra buffer; satisfaction
	// thresholds at the weighted BDP instead of the buffer share.
	{"DynaQ-NaiveVictim", false, func(p SchemeParams, b units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		d, err := NewDynaQ(b, p.Weights, core.WithVictimPolicy(core.VictimMaxThreshold))
		if d != nil {
			d.name = "DynaQ-NaiveVictim"
		}
		return d, err
	}},
	{"DynaQ-WBDP", false, func(p SchemeParams, b units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		d, err := NewDynaQ(b, p.Weights, core.WithWBDPSatisfaction(units.BDP(p.Rate, p.BaseRTT)))
		if d != nil {
			d.name = "DynaQ-WBDP"
		}
		return d, err
	}},
	// The eviction-based alternative the paper cites ([12], §II-C).
	{"BarberQ", false, func(SchemeParams, units.ByteSize, int, *SharedPool) (Admission, error) {
		return NewBarberQ(), nil
	}},
	// The §IV-A programmable-switch model: Algorithm 1 decided in the
	// ingress pipeline on dequeue-time-stale queue lengths.
	{"DynaQ-Tofino", false, func(p SchemeParams, b units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		return NewDynaQTofino(b, p.Weights)
	}},
	// DynaQ's ECN support (§III-B3): PMSB's marking, no threshold
	// adjustment.
	{"DynaQ-ECN", true, func(p SchemeParams, _ units.ByteSize, _ int, _ *SharedPool) (Admission, error) {
		m, err := NewPMSB(p.markK(), p.Weights)
		if m != nil {
			m.name = "DynaQ-ECN"
		}
		return m, err
	}},
	// The §II-C shared-memory strawman, at the hardware default α = 2.
	{"DT", false, func(_ SchemeParams, _ units.ByteSize, _ int, mem *SharedPool) (Admission, error) {
		return NewDT(mem, 2)
	}},
}

// LookupScheme resolves a scheme name; the error lists the known names.
func LookupScheme(name string) (Scheme, error) {
	for _, s := range schemes {
		if s.Name == name {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("unknown scheme %q (known: %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames lists every scheme's name in table order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return names
}

// NewScheme builds the named scheme's instance for one port of a switch with
// memory mem (nil outside a switch).
func NewScheme(name string, p SchemeParams, b units.ByteSize, n int, mem *SharedPool) (Admission, error) {
	s, err := LookupScheme(name)
	if err != nil {
		return nil, fmt.Errorf("buffer: %w", err)
	}
	if len(p.Weights) != n {
		return nil, fmt.Errorf("buffer: scheme %s: %d weights for %d queues", name, len(p.Weights), n)
	}
	return s.New(p, b, n, mem)
}
