package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunTrials executes n independent trials on a pool of worker goroutines and
// returns their results in trial-index order. Because every trial is a
// deterministic function of its index and results are merged by index, the
// output is bit-for-bit identical at any worker count — parallelism lives
// entirely above the (single-goroutine) simulation engine.
//
// workers ≤ 0 selects GOMAXPROCS; anything larger than n is clamped to n.
// One worker runs the trials in index order, one at a time.
//
// Each trial MUST be self-contained: run must build its own Simulator,
// rand.Rand, and telemetry sinks per call, and must not touch shared mutable
// state. TestFCTGridParallelParity under -race reports a trial that shares
// engine state with another.
//
// The first error (by trial index) cancels the pool: idle workers stop
// claiming new trials, in-flight trials finish, and RunTrials returns after
// every worker has exited.
func RunTrials[T any](n, workers int, run func(trial int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiment: RunTrials needs n > 0")
	}
	if run == nil {
		return nil, fmt.Errorf("experiment: RunTrials needs a trial function")
	}
	workers = Workers(workers, n)
	results := make([]T, n)
	errs := make([]error, n) // distinct indices: race-free without a lock
	var (
		next atomic.Int64 // trials claimed so far
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if results[i], errs[i] = run(i); errs[i] != nil {
					// Cancel: every later claim, this worker's next one
					// included, finds nothing left.
					next.Store(int64(n))
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: trial %d: %w", i, err)
		}
	}
	return results, nil
}

// Workers resolves a requested parallelism degree against a trial count:
// requested ≤ 0 (the zero value of Options.Parallel) means GOMAXPROCS,
// and the result is clamped to [1, n].
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
