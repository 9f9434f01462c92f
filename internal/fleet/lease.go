package fleet

import (
	"fmt"
	"sort"
	"time"
)

// Lease is one worker's time-boxed claim on one cell. The coordinator owns
// the authoritative copy; the worker only ever sees the ID and the TTL it
// must renew within.
type Lease struct {
	// ID is the renewal/completion handle handed to the worker.
	ID string
	// Key is the cell's content address (cache key); one cell has at most
	// one live lease.
	Key string
	// JobID names the job the cell belongs to.
	JobID string
	// Worker is the claiming worker's self-reported identity.
	Worker string
	// Attempt is the 1-based run count this lease represents.
	Attempt int
	// Expiry is when the lease lapses unless renewed; past it the cell is
	// requeued and a completion under this ID is answered 410 Gone.
	Expiry time.Time
}

// Table tracks the live leases of one coordinator. It is pure bookkeeping —
// no goroutines, no clock reads, no locks — so the caller (which holds its
// own mutex) decides exactly when time passes, and tests can step it.
type Table struct {
	seq    int
	byID   map[string]*Lease
	byKey  map[string]*Lease
	issued int
}

// NewTable returns an empty lease table.
func NewTable() *Table {
	return &Table{byID: make(map[string]*Lease), byKey: make(map[string]*Lease)}
}

// Grant claims key for worker until now+ttl and returns the new lease. The
// caller must not grant a key that is already leased; Grant panics on that
// programming error rather than silently double-leasing a cell.
func (t *Table) Grant(key, jobID, worker string, attempt int, now time.Time, ttl time.Duration) *Lease {
	if _, live := t.byKey[key]; live {
		panic("fleet: Grant on an already-leased key " + key)
	}
	t.seq++
	l := &Lease{
		ID:      fmt.Sprintf("l%08d-%s", t.seq, shortKey(key)),
		Key:     key,
		JobID:   jobID,
		Worker:  worker,
		Attempt: attempt,
		Expiry:  now.Add(ttl),
	}
	t.byID[l.ID] = l
	t.byKey[key] = l
	t.issued++
	return l
}

// shortKey keeps lease IDs readable without assuming a minimum key length.
func shortKey(key string) string {
	if len(key) > 8 {
		return key[:8]
	}
	return key
}

// Leased reports whether key has a live lease. The fair-queue dispatcher
// uses it as an eligibility check so two jobs sharing a cache key (possible
// across tenants, whose job IDs differ but whose cells do not) never race
// Grant into its double-lease panic.
func (t *Table) Leased(key string) bool {
	_, live := t.byKey[key]
	return live
}

// Get returns the live lease with the given ID without touching it.
func (t *Table) Get(id string) (*Lease, bool) {
	l, ok := t.byID[id]
	return l, ok
}

// Renew extends a live lease to now+ttl. It returns false when the lease is
// unknown — expired and swept, completed, or never issued — in which case
// the worker has lost the cell.
func (t *Table) Renew(id string, now time.Time, ttl time.Duration) (*Lease, bool) {
	l, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	l.Expiry = now.Add(ttl)
	return l, true
}

// Complete removes a live lease and returns it; false means the lease had
// already lapsed (its cell belongs to someone else now).
func (t *Table) Complete(id string) (*Lease, bool) {
	l, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	t.drop(l)
	return l, true
}

// Expire removes and returns every lease whose expiry is at or before now,
// in grant order (deterministic for a given history). IDs embed the
// zero-padded grant sequence, so sorted ID order is grant order.
func (t *Table) Expire(now time.Time) []*Lease {
	ids := make([]string, 0, len(t.byID))
	for id := range t.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var dead []*Lease
	for _, id := range ids {
		if l := t.byID[id]; !l.Expiry.After(now) {
			dead = append(dead, l)
			t.drop(l)
		}
	}
	return dead
}

// DropJob removes every lease belonging to jobID (job cancelled or
// requeued at shutdown) and returns how many were dropped.
func (t *Table) DropJob(jobID string) int {
	n := 0
	for _, l := range t.byID {
		if l.JobID == jobID {
			t.drop(l)
			n++
		}
	}
	return n
}

// NextExpiry returns the earliest live expiry; ok is false when no leases
// are live.
func (t *Table) NextExpiry() (time.Time, bool) {
	var min time.Time
	found := false
	for _, l := range t.byID {
		if !found || l.Expiry.Before(min) {
			min = l.Expiry
			found = true
		}
	}
	return min, found
}

// Len returns the number of live leases.
func (t *Table) Len() int { return len(t.byID) }

// PerWorker counts live leases by worker id — the occupancy view dynaqtop
// renders per worker.
func (t *Table) PerWorker() map[string]int {
	out := make(map[string]int, len(t.byID))
	for _, l := range t.byID {
		out[l.Worker]++
	}
	return out
}

func (t *Table) drop(l *Lease) {
	delete(t.byID, l.ID)
	delete(t.byKey, l.Key)
}
