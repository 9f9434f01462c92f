package experiment

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunTrialsValidation(t *testing.T) {
	if _, err := RunTrials(0, 1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := RunTrials[int](3, 1, nil); err == nil {
		t.Error("nil run should fail")
	}
}

func TestRunTrialsIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := RunTrials(17, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// rendezvous holds each caller until n have arrived. A pool of n workers
// whose first n trials all wait here has every worker inside a trial when the
// first of them goes on — whatever the scheduler does.
type rendezvous struct {
	n       int64
	arrived atomic.Int64
	open    chan struct{}
}

func newRendezvous(n int) *rendezvous { return &rendezvous{n: int64(n), open: make(chan struct{})} }

func (r *rendezvous) wait() {
	if r.arrived.Add(1) == r.n {
		close(r.open)
	}
	<-r.open
}

// TestRunTrialsErrorCancelsPool checks the failure contract: the first error
// by index is reported whichever failed first, trials in flight finish before
// RunTrials returns, and a worker claims nothing after its trial failed. How
// many trials the other workers claim before they see the cancellation is up
// to the scheduler, so nothing here counts them.
func TestRunTrialsErrorCancelsPool(t *testing.T) {
	boom := errors.New("boom")
	const n, workers = 1000, 4

	// Sequentially the trials after the failure never start.
	var started atomic.Int64
	_, err := RunTrials(n, 1, func(i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("sequential: error %v, want boom from trial 3", err)
	}
	if got := started.Load(); got != 4 {
		t.Errorf("sequential: %d trials started, want 4", got)
	}

	// Two of the four workers fail, with all four in flight.
	var finished atomic.Int64
	started.Store(0)
	all := newRendezvous(workers)
	_, err = RunTrials(n, workers, func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if i < workers {
			all.wait()
		}
		if i == 1 || i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "trial 1:") {
		t.Errorf("error %q does not name the lowest failing trial", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("RunTrials returned with %d of %d started trials unfinished", s-f, s)
	}

	// Every worker's first trial fails: nobody claims a second one.
	started.Store(0)
	all = newRendezvous(workers)
	_, err = RunTrials(n, workers, func(i int) (int, error) {
		started.Add(1)
		all.wait()
		return 0, boom
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 0:") {
		t.Fatalf("error %v, want boom from trial 0", err)
	}
	if got := started.Load(); got != workers {
		t.Errorf("%d trials started after every worker failed its first, want %d", got, workers)
	}
}

// TestRunSeedsErrorCancelsPool: the same contract through RunSeeds. All
// eight workers are inside their first seed when those fail, so exactly eight
// of the 64 seeds run and the error is seed index 0's.
func TestRunSeedsErrorCancelsPool(t *testing.T) {
	boom := errors.New("seed failure")
	const workers = 8
	var calls atomic.Int64
	all := newRendezvous(workers)
	_, err := RunSeeds(64, Options{Seed: 5, Parallel: workers}, func(o Options) (float64, error) {
		calls.Add(1)
		all.wait()
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "seed 5:") { // seed index 0
		t.Errorf("error %q does not name the first seed", err)
	}
	if got := calls.Load(); got != workers {
		t.Errorf("%d seeds ran, want %d", got, workers)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(1, 10); got != 1 {
		t.Errorf("Workers(1, 10) = %d, want 1", got)
	}
	if got := Workers(16, 3); got != 3 {
		t.Errorf("Workers(16, 3) = %d, want clamp to 3", got)
	}
	if got := Workers(0, 1000); got < 1 {
		t.Errorf("Workers(0, 1000) = %d, want ≥ 1 (GOMAXPROCS)", got)
	}
}
