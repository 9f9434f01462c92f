// Package experiment holds what the paper's evaluation (§V) shares above
// one cell: the names of the schemes and engines a cell varies, the results
// a static and an FCT cell return, and the harness that runs independent
// cells and seeds in parallel. A cell itself is a scenario document, run by
// package scenario.
package experiment

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/units"
)

// Scheme identifies a buffer-management scheme under test.
type Scheme string

// The compared schemes. BestEffort, PQL and DynaQ are the non-ECN lineup
// (Fig. 8); TCN, PMSB and PerQueueECN are the ECN lineup evaluated with
// DCTCP (Fig. 9); TCNDrop is the §II-C strawman kept as an ablation.
const (
	BestEffort  Scheme = "BestEffort"
	PQL         Scheme = "PQL"
	DynaQ       Scheme = "DynaQ"
	TCN         Scheme = "TCN"
	PMSB        Scheme = "PMSB"
	PerQueueECN Scheme = "PerQueueECN"
	MQECN       Scheme = "MQ-ECN"
	TCNDrop     Scheme = "TCNDrop"

	// Ablation variants of DynaQ (§III-B design discussion):
	// DynaQNaiveVictim selects victims by largest threshold instead of
	// largest extra buffer; DynaQWBDP sets satisfaction thresholds to the
	// weighted BDP instead of the buffer share.
	DynaQNaiveVictim Scheme = "DynaQ-NaiveVictim"
	DynaQWBDP        Scheme = "DynaQ-WBDP"

	// BarberQ is the eviction-based alternative the paper cites ([12],
	// §II-C): push out buffer hogs to absorb microbursts.
	BarberQ Scheme = "BarberQ"

	// DynaQTofino is the §IV-A programmable-switch model: Algorithm 1
	// decided in the ingress pipeline on dequeue-time-stale queue lengths.
	DynaQTofino Scheme = "DynaQ-Tofino"

	// DynaQECN is DynaQ's ECN support (§III-B3): with ECN-based
	// transports the switch does not adjust thresholds but applies
	// PMSB-style marking.
	DynaQECN Scheme = "DynaQ-ECN"

	// DT is the §II-C shared-memory strawman: dynamic thresholds over the
	// switch's memory, which the buffer size then names.
	DT Scheme = "DT"
)

// NonECNSchemes is the Fig. 8 lineup.
func NonECNSchemes() []Scheme { return []Scheme{DynaQ, BestEffort, PQL} }

// ECNSchemes is the Fig. 9 lineup (DynaQ participates through its
// PMSB-style ECN mode when flows run DCTCP; the drop-mode DynaQ column is
// the paper's headline entry, so it leads here too).
func ECNSchemes() []Scheme { return []Scheme{DynaQ, TCN, PMSB, PerQueueECN} }

// IsECNBased reports whether the scheme signals congestion by marking.
func (s Scheme) IsECNBased() bool {
	row, err := buffer.LookupScheme(string(s))
	return err == nil && row.ECN
}

// SchemeParams carries the link-dependent constants the schemes derive
// their thresholds from.
type SchemeParams = buffer.SchemeParams

// NewAdmission builds the buffer-management scheme instance for one port
// outside any switch, through the scheme table in internal/buffer.
func (s Scheme) NewAdmission(p SchemeParams, b units.ByteSize, n int) (buffer.Admission, error) {
	return buffer.NewScheme(string(s), p, b, n, nil)
}

// EngineMode selects the fidelity of a dynamic-flow run: the per-packet
// discrete-event engine, the flow-level fluid engine, or the hybrid that
// packetizes individual ports only while buffer precision matters.
type EngineMode string

// Engine modes.
const (
	EnginePacket EngineMode = "packet"
	EngineFlow   EngineMode = "flow"
	EngineHybrid EngineMode = "hybrid"
)

// ParseEngineMode maps a flag/scenario string to an EngineMode; the empty
// string is the packet default.
func ParseEngineMode(s string) (EngineMode, error) {
	switch m := EngineMode(s); m {
	case "", EnginePacket:
		return EnginePacket, nil
	case EngineFlow, EngineHybrid:
		return m, nil
	default:
		return "", fmt.Errorf("experiment: unknown engine %q (want packet, flow or hybrid)", s)
	}
}
