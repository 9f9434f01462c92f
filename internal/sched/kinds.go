package sched

import (
	"fmt"
	"strings"

	"dynaq/internal/units"
)

// Kind is one row of the scheduler table: what a port scheduler is called
// in a scenario document, and how to build it from one weight per service
// queue, a DRR quantum being the weight in frames of mtu bytes.
type Kind struct {
	Name  string
	build func(weights []int64, mtu units.ByteSize) (Scheduler, error)
}

// kinds is the registry every layer resolves scheduler names through; the
// first row is the default. Adding a scheduler is its type plus one row here.
var kinds = []Kind{
	{"drr", func(w []int64, mtu units.ByteSize) (Scheduler, error) { return newDRR(drrState(w, mtu)) }},
	{"wrr", func(w []int64, _ units.ByteSize) (Scheduler, error) { return NewWRR(w) }},
	// The dynamic-flow experiments' port (§V-A2): queue 0 is the shared
	// strict-priority queue, so its weight goes unused and the DRR covers the
	// queues after it (none on a port with no queue, which NewSPQDRR refuses).
	{"spq+drr", func(w []int64, mtu units.ByteSize) (Scheduler, error) {
		return newSPQDRR(1, drrState(w[min(1, len(w)):], mtu))
	}},
}

// New builds k's scheduler for a port of n service queues.
func (k Kind) New(weights []int64, mtu units.ByteSize, n int) (Scheduler, error) {
	if len(weights) != n {
		return nil, fmt.Errorf("sched: %s: %d weights for %d queues", k.Name, len(weights), n)
	}
	return k.build(weights, mtu)
}

// Quantums turns weights into DRR quantums of weight·mtu bytes, the rule a
// port's DRR and any scheme that models its rounds (MQ-ECN) share.
func Quantums(weights []int64, mtu units.ByteSize) []units.ByteSize {
	return quantumsInto(make([]units.ByteSize, len(weights)), weights, mtu)
}

// drrState is the array a table-built DRR keeps (see DRR.init): the
// quantums Quantums(weights, mtu) returns, then room for the deficits.
func drrState(weights []int64, mtu units.ByteSize) []units.ByteSize {
	return quantumsInto(make([]units.ByteSize, 2*len(weights)), weights, mtu)
}

// quantumsInto writes Quantums(weights, mtu) to the front of qs.
func quantumsInto(qs []units.ByteSize, weights []int64, mtu units.ByteSize) []units.ByteSize {
	for i, w := range weights {
		qs[i] = units.ByteSize(w) * mtu
	}
	return qs
}

// LookupKind resolves a scheduler name, the empty name to the default; the
// error lists the known names.
func LookupKind(name string) (Kind, error) {
	if name == "" {
		return kinds[0], nil
	}
	for _, k := range kinds {
		if k.Name == name {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("unknown scheduler %q (known: %s)", name, strings.Join(KindNames(), ", "))
}

// KindNames lists every scheduler's name in table order.
func KindNames() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.Name
	}
	return names
}
