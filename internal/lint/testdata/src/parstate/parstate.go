// Package parstate exercises the parallel-state analyzer. math/rand.Rand
// stands in for the per-trial engine state (Simulator, telemetry Run) that
// worker goroutines and trial functions must build for themselves.
package parstate

import "math/rand"

// RunTrials mimics the experiment harness entry point: its function-literal
// arguments execute on worker goroutines.
func RunTrials(n int, run func(int) int) {
	for i := 0; i < n; i++ {
		go func(i int) { _ = run(i) }(i)
	}
}

func sharedAcrossWorkers() {
	shared := rand.New(rand.NewSource(1))
	go func() {
		_ = shared.Int63() // want `parallel-state: worker goroutine captures shared \*math/rand\.Rand "shared" from an enclosing scope`
	}()
}

func perWorkerState() {
	go func() {
		local := rand.New(rand.NewSource(2))
		_ = local.Int63() // per-goroutine state: clean
	}()
}

func sharedIntoTrialFunc() {
	shared := rand.New(rand.NewSource(3))
	RunTrials(4, func(i int) int {
		return int(shared.Int63()) // want `parallel-state: trial function captures shared \*math/rand\.Rand "shared" from an enclosing scope`
	})
}

func perTrialState() {
	RunTrials(4, func(i int) int {
		local := rand.New(rand.NewSource(int64(i)))
		return int(local.Int63()) // per-trial state: clean
	})
}

func suppressedWithReason() {
	shared := rand.New(rand.NewSource(5))
	go func() {
		//dynaqlint:allow parallel-state fixture: single goroutine, joined before the next draw
		_ = shared.Int63()
	}()
}
