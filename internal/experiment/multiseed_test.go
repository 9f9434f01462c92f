package experiment

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestRunSeedsValidation(t *testing.T) {
	if _, err := RunSeeds(0, quick, func(Options) (float64, error) { return 0, nil }); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := RunSeeds(3, quick, nil); err == nil {
		t.Error("nil metric should fail")
	}
	wantErr := errors.New("boom")
	if _, err := RunSeeds(3, quick, func(Options) (float64, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	// Seeds may run concurrently (RunSeeds defaults to GOMAXPROCS workers),
	// so the metric must be a pure function of the seed and the reuse check
	// needs a lock.
	var mu sync.Mutex
	seen := map[int64]bool{}
	st, err := RunSeeds(4, Options{Seed: 10}, func(o Options) (float64, error) {
		mu.Lock()
		if seen[o.Seed] {
			t.Errorf("seed %d reused", o.Seed)
		}
		seen[o.Seed] = true
		mu.Unlock()
		return float64((o.Seed-10)/7919) + 1, nil // 1, 2, 3, 4 by seed index
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 4 || st.Mean != 2.5 || st.Min != 1 || st.Max != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Std < 1.1 || st.Std > 1.2 {
		t.Fatalf("std = %v, want ≈1.118", st.Std)
	}
	if !strings.Contains(st.String(), "n=4") {
		t.Errorf("String() = %q", st.String())
	}
}
