// Package fairq implements the coordinator's two-level fair queue: a tree
// of per-tenant leaf queues drained by deterministic weighted round-robin.
//
// The shape mirrors the paper's core move at a different layer. DynaQ gives
// every service its own switch buffer so one service's burst cannot consume
// the queue capacity other services depend on; fairq gives every tenant its
// own leaf queue so one tenant's 10k-cell sweep cannot consume the dispatch
// slots other tenants depend on. The rotation is modeled on the scheduler
// tree-queue used by Grafana Mimir: a flat map of named leaves plus a cursor
// that walks the sorted tenant names cyclically, so fairness is a property
// of construction (every non-empty leaf is visited once per rotation) rather
// than of timers or randomness.
//
// Two types share the file pair: Tree orders individual work items (cells)
// across tenants for dispatch, and JobQueue (jobqueue.go) orders whole jobs
// behind per-tenant admission quotas. Both are pure bookkeeping — they take
// time.Time values from the caller, never read the wall clock, and expect
// the caller to hold its own lock, exactly like fleet.Table.
package fairq

import (
	"sort"
	"time"
)

// item is one queued entry in a leaf: the payload plus the (readyAt, seq)
// pair that fixes its dispatch order within the tenant.
type item[T any] struct {
	v       T
	readyAt time.Time
	seq     int
}

// leaf is one tenant's queue plus its in-flight accounting. The inflight
// count outlives the queued items: a leaf with zero items but live grants
// must survive so Release has somewhere to land.
type leaf[T any] struct {
	items    []item[T]
	inflight int
}

// Tree is a two-level fair queue: tenant leaves drained by burst weighted
// round-robin. Within a tenant, items come out in (readyAt, seq) order, so
// a single-tenant Tree degenerates to the exact FIFO the coordinator used
// before tenancy existed. Across
// tenants, Pop serves up to weight(t) items per visit before the cursor
// advances to the next tenant in sorted-name order, wrapping cyclically.
//
// Starvation-freedom follows by construction: a tenant with a ready item is
// served at most sum(weights)-weight(t) pops after it becomes the cursor's
// predecessor, regardless of how deep any other leaf grows.
//
// Tree is not self-locking; callers serialize access under their own mutex.
type Tree[T any] struct {
	weights     map[string]int
	maxInflight int
	leaves      map[string]*leaf[T]
	seq         int
	last        string // tenant name the cursor last served; "" before any pop
	credit      int    // remaining serves owed to last before the cursor advances
}

// New returns an empty Tree. weights maps tenant name to round-robin burst
// size; missing or non-positive entries default to 1. maxInflight caps each
// tenant's popped-but-unreleased items; zero means uncapped.
func New[T any](weights map[string]int, maxInflight int) *Tree[T] {
	w := make(map[string]int, len(weights))
	for name, n := range weights {
		if n > 0 {
			w[name] = n
		}
	}
	return &Tree[T]{
		weights:     w,
		maxInflight: maxInflight,
		leaves:      make(map[string]*leaf[T]),
	}
}

func (t *Tree[T]) weight(tenant string) int {
	if n := t.weights[tenant]; n > 0 {
		return n
	}
	return 1
}

func (t *Tree[T]) capped(lf *leaf[T]) bool {
	return t.maxInflight > 0 && lf.inflight >= t.maxInflight
}

// Push queues v under tenant, eligible for dispatch at readyAt.
func (t *Tree[T]) Push(tenant string, v T, readyAt time.Time) {
	lf := t.leaves[tenant]
	if lf == nil {
		lf = &leaf[T]{}
		t.leaves[tenant] = lf
	}
	t.seq++
	lf.items = append(lf.items, item[T]{v: v, readyAt: readyAt, seq: t.seq})
}

// rotation returns the non-empty tenant names in visit order: starting at
// last while credit remains, otherwise at last's cyclic successor in sorted
// order. Tracking the cursor by name rather than index keeps the rotation
// stable when tenants appear or drain away between pops.
func (t *Tree[T]) rotation() []string {
	names := make([]string, 0, len(t.leaves))
	for name, lf := range t.leaves {
		if len(lf.items) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return names
	}
	start := 0
	if t.credit > 0 {
		start = sort.SearchStrings(names, t.last)
	} else {
		start = sort.SearchStrings(names, t.last+"\x00")
	}
	if start >= len(names) {
		start = 0
	}
	return append(names[start:], names[:start]...)
}

// Pop removes and returns the next item due for dispatch: the earliest
// (readyAt, seq) entry with readyAt <= now and eligible(v) true, from the
// first tenant in rotation order that is neither in-flight-capped nor empty
// of eligible items. A nil eligible accepts everything. On success the
// serving tenant's inflight count is incremented; the caller must balance
// it with Release once the item settles.
func (t *Tree[T]) Pop(now time.Time, eligible func(T) bool) (string, T, bool) {
	for _, name := range t.rotation() {
		lf := t.leaves[name]
		if t.capped(lf) {
			continue
		}
		best := -1
		for i := range lf.items {
			it := &lf.items[i]
			if it.readyAt.After(now) {
				continue
			}
			if eligible != nil && !eligible(it.v) {
				continue
			}
			if best < 0 || it.readyAt.Before(lf.items[best].readyAt) ||
				(it.readyAt.Equal(lf.items[best].readyAt) && it.seq < lf.items[best].seq) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		v := lf.items[best].v
		lf.items = append(lf.items[:best], lf.items[best+1:]...)
		lf.inflight++
		if name == t.last && t.credit > 0 {
			t.credit--
		} else {
			t.last = name
			t.credit = t.weight(name) - 1
		}
		t.maybeDrop(name, lf)
		return name, v, true
	}
	var zero T
	return "", zero, false
}

// Release returns one in-flight slot to tenant after a popped item settles.
func (t *Tree[T]) Release(tenant string) {
	lf := t.leaves[tenant]
	if lf == nil {
		return
	}
	if lf.inflight > 0 {
		lf.inflight--
	}
	t.maybeDrop(tenant, lf)
}

func (t *Tree[T]) maybeDrop(tenant string, lf *leaf[T]) {
	if len(lf.items) == 0 && lf.inflight == 0 {
		delete(t.leaves, tenant)
	}
}

// NextAt reports the earliest readyAt among queued items of tenants that
// are not in-flight-capped, so the caller can sleep until work could
// actually dispatch rather than polling.
func (t *Tree[T]) NextAt() (time.Time, bool) {
	var at time.Time
	found := false
	for _, lf := range t.leaves {
		if t.capped(lf) {
			continue
		}
		for i := range lf.items {
			if !found || lf.items[i].readyAt.Before(at) {
				at = lf.items[i].readyAt
				found = true
			}
		}
	}
	return at, found
}

// Prune removes every queued item for which pred returns true and reports
// how many were dropped. In-flight accounting is untouched: pruned items
// were never popped, so they hold no slot.
func (t *Tree[T]) Prune(pred func(T) bool) int {
	dropped := 0
	for name, lf := range t.leaves {
		kept := lf.items[:0]
		for _, it := range lf.items {
			if pred(it.v) {
				dropped++
				continue
			}
			kept = append(kept, it)
		}
		lf.items = kept
		t.maybeDrop(name, lf)
	}
	return dropped
}

// Len reports the total number of queued items across all tenants.
func (t *Tree[T]) Len() int {
	n := 0
	for _, lf := range t.leaves {
		n += len(lf.items)
	}
	return n
}

// Depth reports the number of queued items for one tenant.
func (t *Tree[T]) Depth(tenant string) int {
	if lf := t.leaves[tenant]; lf != nil {
		return len(lf.items)
	}
	return 0
}

// Inflight reports tenant's popped-but-unreleased item count.
func (t *Tree[T]) Inflight(tenant string) int {
	if lf := t.leaves[tenant]; lf != nil {
		return lf.inflight
	}
	return 0
}

// Tenants returns the sorted names of tenants with queued or in-flight
// items.
func (t *Tree[T]) Tenants() []string {
	names := make([]string, 0, len(t.leaves))
	for name := range t.leaves {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
