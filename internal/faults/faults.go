// Package faults is the deterministic fault-injection subsystem: a scripted
// schedule of network failures (link down/up, flapping with seeded jitter,
// random packet loss, bit corruption, whole-switch failure via link groups)
// driven by the discrete-event engine, plus a runtime invariant guardrail
// that audits DynaQ's accounting while faults churn the network.
//
// Everything is a deterministic function of the scenario seed: flap jitter
// is drawn from a seeded generator at schedule time, and each impaired link
// gets its own seeded variate stream, so the same scenario + seed always
// reproduces an identical fault timeline and identical experiment output.
//
// Topologies publish their links under stable names (see
// topology.Network.FaultRegistry); a schedule addresses links (or whole
// switches, via groups) by those names.
package faults

import (
	"fmt"
	"sort"

	"dynaq/internal/netsim"
	"dynaq/internal/units"
)

// Fault kinds accepted in a Spec.
const (
	// KindDown fails the target at at_s; with until_s set, it heals then.
	KindDown = "down"
	// KindUp heals the target at at_s.
	KindUp = "up"
	// KindFlap toggles the target down/up every half period between at_s
	// and until_s, each transition jittered by a seeded ±jitter_s draw; the
	// target is healed at until_s.
	KindFlap = "flap"
	// KindLoss sets random packet loss with probability rate on the target
	// at at_s; with until_s set, the loss clears then.
	KindLoss = "loss"
	// KindCorrupt sets bit-corruption with probability rate on the target
	// at at_s; with until_s set, the corruption clears then.
	KindCorrupt = "corrupt"
)

// Spec is one scripted fault, the JSON form consumed by scenario documents
// ("faults": [...]) and the dynaqsim -faults flag. Target names a link or a
// link group (a whole switch) in the topology's fault registry.
type Spec struct {
	Kind    string  `json:"kind"`               // down | up | flap | loss | corrupt
	Target  string  `json:"target"`             // link or switch-group name
	AtS     float64 `json:"at_s"`               // activation time, seconds
	UntilS  float64 `json:"until_s,omitempty"`  // deactivation time (flap end, auto-heal)
	PeriodS float64 `json:"period_s,omitempty"` // flap: full down+up cycle
	JitterS float64 `json:"jitter_s,omitempty"` // flap: ± jitter per transition (seeded)
	Rate    float64 `json:"rate,omitempty"`     // loss|corrupt probability, [0,1)
}

// maxFlapToggles bounds the toggles one flap plans.
const maxFlapToggles = 100_000

// Validate checks the spec's internal consistency (target existence is
// checked separately, against a registry, when the schedule is applied).
func (s Spec) Validate() error {
	if s.Target == "" {
		return fmt.Errorf("faults: %s spec needs a target", s.Kind)
	}
	if s.AtS < 0 {
		return fmt.Errorf("faults: %s %q: at_s %v must be non-negative", s.Kind, s.Target, s.AtS)
	}
	// Every fault time becomes 64-bit picoseconds.
	if horizon := float64(units.MaxDuration) / float64(units.Second); s.AtS >= horizon || s.UntilS >= horizon {
		return fmt.Errorf("faults: %s %q: at_s %v and until_s %v must fall before %v s, the 64-bit picosecond horizon", s.Kind, s.Target, s.AtS, s.UntilS, horizon)
	}
	switch s.Kind {
	case KindDown, KindUp:
		//dynaqlint:allow float-eq until_s == 0 is the JSON-absent sentinel; the value is decoded, never computed
		if s.UntilS != 0 && s.UntilS <= s.AtS {
			return fmt.Errorf("faults: %s %q: until_s %v must follow at_s %v", s.Kind, s.Target, s.UntilS, s.AtS)
		}
	case KindFlap:
		if s.UntilS <= s.AtS {
			return fmt.Errorf("faults: flap %q: until_s %v must follow at_s %v", s.Target, s.UntilS, s.AtS)
		}
		if s.PeriodS <= 0 {
			return fmt.Errorf("faults: flap %q: period_s %v must be positive", s.Target, s.PeriodS)
		}
		if s.JitterS < 0 || s.JitterS >= s.PeriodS/2 {
			return fmt.Errorf("faults: flap %q: jitter_s %v must be in [0, period_s/2)", s.Target, s.JitterS)
		}
		// Schedule plans every toggle up front, stepping half a period at a
		// time: the step must move until_s, and the toggles stay few.
		if half := s.PeriodS / 2; (s.UntilS-s.AtS)/half > maxFlapToggles || s.UntilS+half/2 <= s.UntilS {
			return fmt.Errorf("faults: flap %q: period_s %v toggles more than %d times between at_s and until_s", s.Target, s.PeriodS, maxFlapToggles)
		}
	case KindLoss, KindCorrupt:
		if s.Rate <= 0 || s.Rate >= 1 {
			return fmt.Errorf("faults: %s %q: rate %v must be in (0,1)", s.Kind, s.Target, s.Rate)
		}
		//dynaqlint:allow float-eq until_s == 0 is the JSON-absent sentinel; the value is decoded, never computed
		if s.UntilS != 0 && s.UntilS <= s.AtS {
			return fmt.Errorf("faults: %s %q: until_s %v must follow at_s %v", s.Kind, s.Target, s.UntilS, s.AtS)
		}
	default:
		return fmt.Errorf("faults: unknown kind %q (want down, up, flap, loss, or corrupt)", s.Kind)
	}
	return nil
}

// Validate checks a whole schedule.
func Validate(specs []Spec) error {
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return nil
}

// Registry maps stable names to the links of an assembled topology, plus
// named groups (every link incident to one switch) so a single spec can fail
// a whole switch. Registration happens at topology-build time; duplicate or
// dangling names are programmer errors and panic.
type Registry struct {
	links  map[string]*netsim.Link
	groups map[string][]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		links:  make(map[string]*netsim.Link),
		groups: make(map[string][]string),
	}
}

// AddLink registers a link under a unique name.
func (r *Registry) AddLink(name string, l *netsim.Link) {
	if l == nil {
		panic(fmt.Sprintf("faults: registering nil link %q", name))
	}
	if _, dup := r.links[name]; dup {
		panic(fmt.Sprintf("faults: duplicate link name %q", name))
	}
	r.links[name] = l
}

// AddGroup registers a named group over already-registered links. A group
// name may not collide with a link name: targets resolve unambiguously.
func (r *Registry) AddGroup(group string, linkNames ...string) {
	if _, dup := r.groups[group]; dup {
		panic(fmt.Sprintf("faults: duplicate group name %q", group))
	}
	if _, clash := r.links[group]; clash {
		panic(fmt.Sprintf("faults: group name %q collides with a link name", group))
	}
	for _, n := range linkNames {
		if _, ok := r.links[n]; !ok {
			panic(fmt.Sprintf("faults: group %q references unknown link %q", group, n))
		}
	}
	r.groups[group] = append([]string(nil), linkNames...)
}

// Resolve returns the links a target names: one link, or a group's links.
func (r *Registry) Resolve(target string) ([]*netsim.Link, error) {
	if l, ok := r.links[target]; ok {
		return []*netsim.Link{l}, nil
	}
	if names, ok := r.groups[target]; ok {
		ls := make([]*netsim.Link, len(names))
		for i, n := range names {
			ls[i] = r.links[n]
		}
		return ls, nil
	}
	return nil, fmt.Errorf("faults: unknown target %q (known: %v)", target, r.Names())
}

// Totals sums the loss and corruption counters across every registered
// link, for experiment summaries ("how many packets did the faults eat").
func (r *Registry) Totals() (lost, corrupted int64) {
	// Map order cannot matter: int64 addition is commutative and exact, so
	// every visit order gives the same two sums.
	for _, l := range r.links {
		lost += l.Lost()
		corrupted += l.Corrupted()
	}
	return lost, corrupted
}

// LinkNames returns every registered link name, sorted, so registry
// listings are deterministic regardless of map iteration order.
func (r *Registry) LinkNames() []string {
	out := make([]string, 0, len(r.links))
	for n := range r.links {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GroupNames returns every registered group name, sorted.
func (r *Registry) GroupNames() []string {
	out := make([]string, 0, len(r.groups))
	for n := range r.groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Names returns every registered link and group name, sorted, for error
// messages and CLI discovery.
func (r *Registry) Names() []string {
	out := append(r.LinkNames(), r.GroupNames()...)
	sort.Strings(out)
	return out
}

// Transition is one applied fault action, recorded as it fires so replay
// tests can compare timelines byte for byte.
type Transition struct {
	At     units.Time
	Target string
	Action string
}

// String renders the transition for logs and CLI output.
func (t Transition) String() string {
	return fmt.Sprintf("%-14v %-18s %s", t.At, t.Target, t.Action)
}
