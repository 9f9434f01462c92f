package fleet

import (
	"math"
	"math/big"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestManualClock(t *testing.T) {
	c := NewManualClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now = %v, want %v", c.Now(), t0)
	}
	ch := c.After(10 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	c.Advance(5 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired before its deadline")
	default:
	}
	c.Advance(5 * time.Millisecond)
	select {
	case at := <-ch:
		if !at.Equal(t0.Add(10 * time.Millisecond)) {
			t.Fatalf("fired at %v, want %v", at, t0.Add(10*time.Millisecond))
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}

	// A non-positive delay fires immediately: re-arming loops cannot miss
	// an Advance that happened while they were not waiting.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestLeaseTable(t *testing.T) {
	tab := NewTable()
	ttl := 100 * time.Millisecond
	l := tab.Grant("key-aaaa-1", "job1", "w1", 1, t0, ttl)
	if l.Expiry != t0.Add(ttl) {
		t.Fatalf("expiry = %v, want %v", l.Expiry, t0.Add(ttl))
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}

	// Renewal pushes the expiry out; the lease survives the original TTL.
	if _, ok := tab.Renew(l.ID, t0.Add(50*time.Millisecond), ttl); !ok {
		t.Fatal("renew of a live lease failed")
	}
	if dead := tab.Expire(t0.Add(ttl)); len(dead) != 0 {
		t.Fatalf("renewed lease expired: %v", dead)
	}
	if dead := tab.Expire(t0.Add(150 * time.Millisecond)); len(dead) != 1 || dead[0].ID != l.ID {
		t.Fatalf("expire = %v, want exactly %s", dead, l.ID)
	}
	// Expired means gone: renew and complete both fail.
	if _, ok := tab.Renew(l.ID, t0, ttl); ok {
		t.Fatal("renewed an expired lease")
	}
	if _, ok := tab.Complete(l.ID); ok {
		t.Fatal("completed an expired lease")
	}

	// Completion removes; a second completion is stale.
	l2 := tab.Grant("key-bbbb-2", "job1", "w1", 1, t0, ttl)
	if got, ok := tab.Complete(l2.ID); !ok || got.Key != "key-bbbb-2" {
		t.Fatalf("complete = %v %v", got, ok)
	}
	if _, ok := tab.Complete(l2.ID); ok {
		t.Fatal("double-completed a lease")
	}

	// Expire returns grant order even with several lapsed at once.
	a := tab.Grant("key-a", "job2", "w1", 1, t0, ttl)
	b := tab.Grant("key-b", "job2", "w2", 1, t0, ttl)
	dead := tab.Expire(t0.Add(2 * ttl))
	if len(dead) != 2 || dead[0].ID != a.ID || dead[1].ID != b.ID {
		t.Fatalf("expire order = %v, want [%s %s]", dead, a.ID, b.ID)
	}

	// DropJob clears a job's leases only.
	tab.Grant("key-c", "job3", "w1", 1, t0, ttl)
	tab.Grant("key-d", "job4", "w1", 1, t0, ttl)
	if n := tab.DropJob("job3"); n != 1 || tab.Len() != 1 {
		t.Fatalf("DropJob = %d, len = %d", n, tab.Len())
	}
}

func TestGrantPanicsOnLiveKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double-grant did not panic")
		}
	}()
	tab := NewTable()
	tab.Grant("k", "j", "w1", 1, t0, time.Second)
	tab.Grant("k", "j", "w2", 1, t0, time.Second)
}

func TestBackoffDeterministicCappedJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := b.Delay("cell-key", attempt)
		d2 := b.Delay("cell-key", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		window := 100 * time.Millisecond << (attempt - 1)
		if window > time.Second {
			window = time.Second
		}
		if d1 < window/2 || d1 > window {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, window/2, window)
		}
	}
	// Different cells jitter apart (the point of jitter).
	if b.Delay("cell-one", 3) == b.Delay("cell-two", 3) {
		t.Fatal("distinct keys produced identical jitter (suspicious seed derivation)")
	}
	// Zero-value policy still produces sane defaults.
	if d := (Backoff{}).Delay("k", 1); d < 125*time.Millisecond || d > 250*time.Millisecond {
		t.Fatalf("default delay = %v, want within [125ms, 250ms]", d)
	}
	// A cap near the largest Duration: the window stops at the cap instead
	// of doubling past it.
	huge := Backoff{Base: 250 * time.Millisecond, Cap: math.MaxInt64}
	for attempt := 1; attempt <= 200; attempt++ {
		window := huge.Cap
		if w := new(big.Int).Lsh(big.NewInt(int64(huge.Base)), uint(attempt-1)); w.IsInt64() {
			window = time.Duration(w.Int64())
		}
		if d := huge.Delay("cell-key", attempt); d < window/2 || d > window {
			t.Fatalf("cap %v, attempt %d: delay %v outside [%v, %v]", huge.Cap, attempt, d, window/2, window)
		}
	}
}
