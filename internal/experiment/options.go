package experiment

import "fmt"

// ScaleLevel selects how faithfully a figure runner reproduces the paper's
// parameters; smaller scales keep the same structure with shorter runs.
type ScaleLevel int

// Scale levels.
const (
	// Quick is CI scale: seconds of wall clock per figure.
	Quick ScaleLevel = iota
	// Standard is the default for cmd/experiments: minutes overall,
	// statistically meaningful.
	Standard
	// Full is paper scale (10K flows, 60s testbed runs, 12×12 fabric).
	Full
)

// String implements fmt.Stringer.
func (s ScaleLevel) String() string {
	switch s {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("ScaleLevel(%d)", int(s))
	}
}

// Options parameterizes every figure runner.
type Options struct {
	Scale ScaleLevel
	Seed  int64
	// Parallel is the worker count for figures built from independent
	// (scheme, load, seed) cells: 0 (the default) means GOMAXPROCS, 1 runs
	// sequentially. Results are merged in deterministic cell order, so the
	// output is identical at any setting (see RunTrials).
	Parallel int
	// Engine selects the FCT figures' simulation fidelity (packet by
	// default); see EngineMode. Static figures always run at packet level.
	Engine EngineMode
}
