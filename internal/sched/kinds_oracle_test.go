package sched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dynaq/internal/sched"
	"dynaq/internal/units"
)

// The scheduler kinds as package experiment held them before the table, kept
// verbatim as the oracle for it, with the rule package scenario applied
// around them: an SPQ+DRR port's weights skip the priority queue's.

// SchedKind selects the packet scheduler used on every switch port.
type SchedKind string

// Scheduler kinds used across the experiments.
const (
	SchedDRR    SchedKind = "drr"
	SchedWRR    SchedKind = "wrr"
	SchedSPQDRR SchedKind = "spq+drr"
)

// ParseSchedKind maps a flag/scenario string to a SchedKind; the empty
// string is the DRR default.
func ParseSchedKind(s string) (SchedKind, error) {
	switch k := SchedKind(s); k {
	case "":
		return SchedDRR, nil
	case SchedDRR, SchedWRR, SchedSPQDRR:
		return k, nil
	default:
		return "", fmt.Errorf("experiment: unknown scheduler kind %q (want drr, wrr or spq+drr)", s)
	}
}

// NewScheduler builds a scheduler instance for one port. For SPQDRR, queue
// 0 is the shared strict-priority queue and the weights describe the
// remaining DRR queues.
func (k SchedKind) NewScheduler(weights []int64, mtu units.ByteSize, n int) (sched.Scheduler, error) {
	quantums := func(ws []int64) []units.ByteSize {
		qs := make([]units.ByteSize, len(ws))
		for i, w := range ws {
			qs[i] = units.ByteSize(w) * mtu
		}
		return qs
	}
	switch k {
	case SchedDRR:
		if len(weights) != n {
			return nil, fmt.Errorf("experiment: DRR: %d weights for %d queues", len(weights), n)
		}
		return sched.NewDRR(quantums(weights))
	case SchedWRR:
		if len(weights) != n {
			return nil, fmt.Errorf("experiment: WRR: %d weights for %d queues", len(weights), n)
		}
		return sched.NewWRR(weights)
	case SchedSPQDRR:
		if len(weights) != n-1 {
			return nil, fmt.Errorf("experiment: SPQ+DRR: %d DRR weights for %d queues", len(weights), n)
		}
		return sched.NewSPQDRR(1, quantums(weights))
	default:
		return nil, fmt.Errorf("experiment: unknown scheduler kind %q", k)
	}
}

// parentFactory is the scheduler half of scenario.factories before the
// table, verbatim.
func parentFactory(k SchedKind, weights []int64, mtu units.ByteSize) func(n int) (sched.Scheduler, error) {
	if k == SchedSPQDRR {
		// The DRR sub-scheduler covers the queues after the priority queue.
		weights = weights[1:]
	}
	return func(n int) (sched.Scheduler, error) { return k.NewScheduler(weights, mtu, n) }
}

// parentBuild runs parentFactory, counting a panic (an SPQ+DRR port with no
// weights at all) as a refusal.
func parentBuild(k SchedKind, weights []int64, mtu units.ByteSize, n int) (s sched.Scheduler, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return parentFactory(k, weights, mtu)(n)
}

// TestKindsMatchParent: the table resolves exactly the names the parent
// parsed, to the same kinds, and every row accepts and refuses exactly the
// weight vectors its parent did, building an identical scheduler from each
// it accepts.
func TestKindsMatchParent(t *testing.T) {
	for _, name := range []string{"", "drr", "wrr", "spq+drr", "fifo", "DRR", "spq"} {
		k, err := sched.LookupKind(name)
		pk, perr := ParseSchedKind(name)
		if (err == nil) != (perr == nil) || err == nil && k.Name != string(pk) {
			t.Errorf("%q: table %q, %v; parent %q, %v", name, k.Name, err, pk, perr)
		}
	}
	if got, want := sched.KindNames(), []string{"drr", "wrr", "spq+drr"}; !slices.Equal(got, want) {
		t.Errorf("KindNames() = %v, want %v", got, want)
	}

	// Every vector of up to five weights from a set that includes the
	// refused 0 and -1, then random ones up to past a backlog word.
	var vectors [][]int64
	var grow func(w []int64)
	grow = func(w []int64) {
		vectors = append(vectors, w)
		if len(w) == 5 {
			return
		}
		for _, x := range []int64{-1, 0, 1, 2, 7} {
			grow(append(slices.Clip(w), x))
		}
	}
	grow(nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		w := make([]int64, rng.Intn(sched.MaxQueues+3))
		for j := range w {
			w[j] = rng.Int63n(9)
		}
		vectors = append(vectors, w)
	}

	for _, name := range sched.KindNames() {
		k, _ := sched.LookupKind(name)
		accepted, refused := 0, 0
		for _, w := range vectors {
			for _, n := range []int{len(w) - 1, len(w), len(w) + 1} {
				for _, mtu := range []units.ByteSize{1500, 9000} {
					got, err := k.New(slices.Clone(w), mtu, n)
					want, perr := parentBuild(SchedKind(name), slices.Clone(w), mtu, n)
					switch {
					case (err == nil) != (perr == nil):
						t.Fatalf("%s weights %v mtu %d n %d: table %v, parent %v", name, w, mtu, n, err, perr)
					case err != nil:
						refused++
					case !reflect.DeepEqual(got, want):
						t.Fatalf("%s weights %v mtu %d n %d: table built %+v, parent %+v", name, w, mtu, n, got, want)
					default:
						accepted++
					}
				}
			}
		}
		if accepted == 0 || refused == 0 {
			t.Errorf("%s: %d vectors accepted, %d refused; the check needs both", name, accepted, refused)
		}
	}
}
