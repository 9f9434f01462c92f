package core

import (
	"fmt"

	"dynaq/internal/units"
)

// VictimPolicy selects how line 2 of Algorithm 1 picks the victim queue.
// The paper's design discussion (§III-B "Victim Queue Selection")
// explicitly contrasts the chosen extra-buffer rule with the naive
// largest-threshold rule, which mis-victimizes highly-weighted queues; both
// are implemented so the ablation experiment can reproduce that argument.
type VictimPolicy uint8

// Victim policies.
const (
	// VictimMaxExtra picks argmax T_i − S_i (the paper's rule).
	VictimMaxExtra VictimPolicy = iota
	// VictimMaxThreshold picks argmax T_i (the naive rule the paper
	// rejects: with weights 1:2:3 it can strip queue 3 down below the
	// buffer it needs for its weighted share).
	VictimMaxThreshold
)

// String implements fmt.Stringer.
func (p VictimPolicy) String() string {
	switch p {
	case VictimMaxExtra:
		return "max-extra"
	case VictimMaxThreshold:
		return "max-threshold"
	default:
		return fmt.Sprintf("VictimPolicy(%d)", uint8(p))
	}
}

// Option customizes a State at construction.
type Option interface {
	apply(st *State) error
}

type optionFunc func(st *State) error

func (f optionFunc) apply(st *State) error { return f(st) }

// WithVictimPolicy selects the victim-selection rule (default:
// VictimMaxExtra, the paper's choice).
func WithVictimPolicy(p VictimPolicy) Option {
	return optionFunc(func(st *State) error {
		if p != VictimMaxExtra && p != VictimMaxThreshold {
			return fmt.Errorf("core: unknown victim policy %v", p)
		}
		st.victimPolicy = p
		return nil
	})
}

// WithWBDPSatisfaction sets the satisfaction thresholds to the *weighted
// BDP*, S_i = BDP·w_i/Σw, instead of the paper's buffer share B·w_i/Σw
// (Eq. 3). The paper reports that this theoretically-sufficient setting
// fails in practice — "T_i fluctuates over time, preventing queue i from
// enjoying its fair share rate stably" — because it leaves no headroom;
// this option exists to reproduce that ablation.
func WithWBDPSatisfaction(bdp units.ByteSize) Option {
	return optionFunc(func(st *State) error {
		if bdp <= 0 {
			return fmt.Errorf("core: BDP %d must be positive", bdp)
		}
		st.satisfactionBDP = bdp
		st.reinit()
		return nil
	})
}

// VictimPolicy returns the configured victim-selection rule.
func (st *State) VictimPolicy() VictimPolicy { return st.victimPolicy }
