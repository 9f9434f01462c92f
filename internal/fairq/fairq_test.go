package fairq

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynaq/internal/fleet"
)

func fill(t *Tree[string], tenant string, n int, at time.Time) {
	for i := 0; i < n; i++ {
		t.Push(tenant, fmt.Sprintf("%s-%d", tenant, i), at)
	}
}

// TestNoStarvationUnderFlood is the acceptance property test: tenant A has
// 1000 queued cells and tenant B has 10, both weight 1, under a ManualClock.
// Every B cell must dispatch within the first 2*|B| grant rounds.
func TestNoStarvationUnderFlood(t *testing.T) {
	clock := fleet.NewManualClock(time.Unix(0, 0))
	now := clock.Now()
	tr := New[string](nil, 0)
	fill(tr, "a", 1000, now)
	fill(tr, "b", 10, now)

	lastB := -1
	for round := 0; round < 2*10; round++ {
		tenant, _, ok := tr.Pop(now, nil)
		if !ok {
			t.Fatalf("round %d: queue dry with %d items left", round, tr.Len())
		}
		if tenant == "b" {
			lastB = round
		}
	}
	if got := tr.Depth("b"); got != 0 {
		t.Fatalf("tenant b still has %d cells queued after 20 rounds (last b dispatch at round %d)", got, lastB)
	}
}

// TestWeightedInterleave checks the 3:1 acceptance property: with weights
// a=3, b=1 the rotation gives A three dispatches per B dispatch, +-1.
func TestWeightedInterleave(t *testing.T) {
	now := time.Unix(0, 0)
	tr := New[string](map[string]int{"a": 3, "b": 1}, 0)
	fill(tr, "a", 90, now)
	fill(tr, "b", 30, now)

	aRun := 0
	bSeen := 0
	for tr.Depth("b") > 0 {
		tenant, _, ok := tr.Pop(now, nil)
		if !ok {
			t.Fatal("queue dry before tenant b drained")
		}
		switch tenant {
		case "a":
			aRun++
			if aRun > 4 {
				t.Fatalf("tenant a dispatched %d times in a row; want 3 +-1", aRun)
			}
		case "b":
			if bSeen > 0 && aRun < 2 {
				t.Fatalf("only %d a-dispatches between b-dispatches; want 3 +-1", aRun)
			}
			bSeen++
			aRun = 0
		}
	}
	if bSeen != 30 {
		t.Fatalf("tenant b dispatched %d times, want 30", bSeen)
	}
}

// readyOracle is the reference the single-tenant order is checked against:
// the pre-tenancy coordinator's ready queue, a linear scan for the earliest
// (readyAt, seq) item that has arrived.
type readyOracle struct {
	items []oracleItem
}

type oracleItem struct {
	v       int
	readyAt time.Time
}

func (q *readyOracle) push(v int, readyAt time.Time) {
	q.items = append(q.items, oracleItem{v, readyAt})
}

func (q *readyOracle) pop(now time.Time) (int, bool) {
	best := -1
	for i, it := range q.items {
		// Items sit in push order, so a strict Before keeps ties FIFO.
		if !it.readyAt.After(now) && (best < 0 || it.readyAt.Before(q.items[best].readyAt)) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	v := q.items[best].v
	q.items = append(q.items[:best], q.items[best+1:]...)
	return v, true
}

// TestSingleTenantFIFO pins the degenerate case the coordinator relies on:
// one tenant pops in exactly the old ready queue's (readyAt, seq) order.
func TestSingleTenantFIFO(t *testing.T) {
	base := time.Unix(100, 0)
	tr := New[int](nil, 0)
	var rq readyOracle
	at := []time.Duration{5 * time.Second, 0, 2 * time.Second, 0, 5 * time.Second}
	for i, d := range at {
		tr.Push("default", i, base.Add(d))
		rq.push(i, base.Add(d))
	}
	now := base.Add(10 * time.Second)
	for {
		want, wok := rq.pop(now)
		_, got, gok := tr.Pop(now, nil)
		if wok != gok {
			t.Fatalf("length mismatch: oracle ok=%v Tree ok=%v", wok, gok)
		}
		if !wok {
			break
		}
		if got != want {
			t.Fatalf("order diverged: Tree popped %d, oracle popped %d", got, want)
		}
	}
}

func TestReadyAtGating(t *testing.T) {
	base := time.Unix(0, 0)
	tr := New[string](nil, 0)
	tr.Push("a", "later", base.Add(time.Minute))
	tr.Push("a", "now", base)

	if _, v, ok := tr.Pop(base, nil); !ok || v != "now" {
		t.Fatalf("Pop(base) = %q, %v; want \"now\", true", v, ok)
	}
	if _, _, ok := tr.Pop(base, nil); ok {
		t.Fatal("Pop(base) returned the not-yet-ready item")
	}
	at, ok := tr.NextAt()
	if !ok || !at.Equal(base.Add(time.Minute)) {
		t.Fatalf("NextAt() = %v, %v; want %v, true", at, ok, base.Add(time.Minute))
	}
	if _, v, ok := tr.Pop(base.Add(time.Minute), nil); !ok || v != "later" {
		t.Fatalf("Pop(+1m) = %q, %v; want \"later\", true", v, ok)
	}
}

func TestEligibilityPredicateSkips(t *testing.T) {
	now := time.Unix(0, 0)
	tr := New[string](nil, 0)
	tr.Push("a", "blocked", now)
	tr.Push("a", "free", now)

	_, v, ok := tr.Pop(now, func(s string) bool { return s != "blocked" })
	if !ok || v != "free" {
		t.Fatalf("Pop with predicate = %q, %v; want \"free\", true", v, ok)
	}
	if _, _, ok := tr.Pop(now, func(s string) bool { return s != "blocked" }); ok {
		t.Fatal("Pop returned an ineligible item")
	}
}

func TestInflightCap(t *testing.T) {
	now := time.Unix(0, 0)
	tr := New[string](nil, 1)
	fill(tr, "a", 2, now)
	fill(tr, "b", 2, now)

	tenant, _, ok := tr.Pop(now, nil)
	if !ok || tenant != "a" {
		t.Fatalf("first pop = %q, %v; want \"a\", true", tenant, ok)
	}
	// a is now capped: the next two pops must both come from b.
	for i := 0; i < 1; i++ {
		tenant, _, ok = tr.Pop(now, nil)
		if !ok || tenant != "b" {
			t.Fatalf("pop while a capped = %q, %v; want \"b\", true", tenant, ok)
		}
	}
	// b is capped too; with both tenants at the cap nothing dispatches and
	// NextAt must not advertise the capped work.
	if _, _, ok := tr.Pop(now, nil); ok {
		t.Fatal("Pop dispatched past the in-flight cap")
	}
	if _, ok := tr.NextAt(); ok {
		t.Fatal("NextAt advertised work from capped tenants")
	}
	tr.Release("a")
	tenant, _, ok = tr.Pop(now, nil)
	if !ok || tenant != "a" {
		t.Fatalf("pop after release = %q, %v; want \"a\", true", tenant, ok)
	}
	if tr.Inflight("a") != 1 || tr.Inflight("b") != 1 {
		t.Fatalf("inflight = a:%d b:%d; want 1, 1", tr.Inflight("a"), tr.Inflight("b"))
	}
}

func TestPrune(t *testing.T) {
	now := time.Unix(0, 0)
	tr := New[string](nil, 0)
	fill(tr, "a", 3, now)
	fill(tr, "b", 2, now)

	dropped := tr.Prune(func(s string) bool { return s[0] == 'a' })
	if dropped != 3 {
		t.Fatalf("Prune dropped %d items, want 3", dropped)
	}
	if tr.Depth("a") != 0 || tr.Depth("b") != 2 || tr.Len() != 2 {
		t.Fatalf("after prune: a=%d b=%d len=%d; want 0, 2, 2", tr.Depth("a"), tr.Depth("b"), tr.Len())
	}
	if got := tr.Tenants(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Tenants() = %v, want [b]", got)
	}
}

// TestRotationSurvivesChurn checks that the cursor keeps rotating fairly
// when tenants drain away and new ones appear mid-rotation.
func TestRotationSurvivesChurn(t *testing.T) {
	now := time.Unix(0, 0)
	tr := New[string](nil, 0)
	fill(tr, "b", 1, now)
	fill(tr, "d", 3, now)

	if tenant, _, _ := tr.Pop(now, nil); tenant != "b" {
		t.Fatalf("first pop from %q, want b", tenant)
	}
	// b is gone; c arrives between pops. Cursor sat at b, so the cyclic
	// successor among {c, d} is c.
	fill(tr, "c", 1, now)
	if tenant, _, _ := tr.Pop(now, nil); tenant != "c" {
		t.Fatalf("second pop from %q, want c", tenant)
	}
	if tenant, _, _ := tr.Pop(now, nil); tenant != "d" {
		t.Fatalf("third pop from %q, want d", tenant)
	}
}

func TestJobQueueQuotaAndCapacity(t *testing.T) {
	q := NewJobQueue[string](3, 2)
	if err := q.Enqueue("a", "a1"); err != nil {
		t.Fatalf("Enqueue(a1): %v", err)
	}
	if err := q.Enqueue("a", "a2"); err != nil {
		t.Fatalf("Enqueue(a2): %v", err)
	}
	err := q.Enqueue("a", "a3")
	var tf *TenantFullError
	if !errors.As(err, &tf) {
		t.Fatalf("Enqueue(a3) = %v, want TenantFullError", err)
	}
	if tf.Tenant != "a" || tf.Depth != 2 || tf.Limit != 2 {
		t.Fatalf("TenantFullError = %+v, want {a 2 2}", tf)
	}
	// Another tenant still has room under the global cap.
	if err := q.Enqueue("b", "b1"); err != nil {
		t.Fatalf("Enqueue(b1): %v", err)
	}
	err = q.Enqueue("c", "c1")
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("Enqueue(c1) = %v, want QueueFullError", err)
	}
	if qf.Depth != 3 || qf.Limit != 3 {
		t.Fatalf("QueueFullError = %+v, want {3 3}", qf)
	}
	// Force bypasses both limits.
	q.Force("a", "a3")
	if q.Len() != 4 || q.Depth("a") != 3 {
		t.Fatalf("after Force: len=%d depth(a)=%d; want 4, 3", q.Len(), q.Depth("a"))
	}
}

func TestJobQueueFIFOPerTenant(t *testing.T) {
	q := NewJobQueue[string](10, 0)
	for _, v := range []string{"a1", "a2", "a3"} {
		if err := q.Enqueue("a", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Enqueue("b", "b1"); err != nil {
		t.Fatal(err)
	}
	if got := q.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tenants() = %v, want [a b]", got)
	}
	for _, want := range []string{"a1", "a2", "a3"} {
		v, ok := q.Pop("a")
		if !ok || v != want {
			t.Fatalf("Pop(a) = %q, %v; want %q, true", v, ok, want)
		}
	}
	if _, ok := q.Pop("a"); ok {
		t.Fatal("Pop on drained tenant succeeded")
	}
	if got := q.Tenants(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Tenants() after drain = %v, want [b]", got)
	}
}
