package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// CellManifest builds the telemetry manifest for one cell. Every field is a
// pure function of the cell's identity, keeping artifact bytes identical no
// matter which node (coordinator fallback or any worker) produced them.
func CellManifest(version, scenarioHash, scheme string, seed int64, key string) telemetry.Manifest {
	return telemetry.Manifest{
		Tool:         "dynaqd",
		Version:      version,
		ScenarioHash: scenarioHash,
		Seed:         seed,
		Scheme:       scheme,
		Args:         []string{"scheme=" + scheme, "seed=" + strconv.FormatInt(seed, 10), "cache_key=" + key},
	}
}

// RunCellTo executes one (scenario, scheme, seed) cell into dir: a full
// telemetry Run (events.jsonl, metrics.jsonl, manifest.json) around a
// scenario execution, whose result it writes as outcome.json. It is the
// single execution path shared by the coordinator's local fallback,
// cmd/dynaqworker, and the byte-diff tests that prove a cached artifact
// equals a fresh sequential run. The returned registry stays readable after
// the run for server-level aggregation.
//
// span, when non-nil, receives wall-time child spans for the execution
// phases (scenario-load, run, artifact-write) plus the engine's sim-time
// spans parented under the run phase. Spans never touch the artifact
// directory, so tracing cannot perturb the byte-identical cache contract.
func RunCellTo(dir string, scenarioBytes []byte, scheme string, seed int64, man telemetry.Manifest, tee func(line []byte), span *trace.SpanRef) (*telemetry.Registry, error) {
	load := span.Child("scenario-load")
	r, err := scenario.LoadWith(scenarioBytes, scenario.Overrides{Scheme: scheme, Seed: &seed})
	if err != nil {
		load.End(trace.A("error", err.Error()))
		return nil, err
	}
	// The engine fidelity comes from the scenario document itself, so it is
	// still a pure function of the cell's identity (the scenario hash).
	man.Engine = r.Engine()
	run, err := telemetry.NewRun(dir, man)
	if err != nil {
		load.End(trace.A("error", err.Error()))
		return nil, err
	}
	load.End()
	if tee != nil {
		run.Tee(tee)
	}
	r.SetTelemetry(run)
	exec := span.Child("run")
	if exec != nil {
		r.SetSpans(exec.Tracer(), exec.ID())
	}
	res, outcome, err := runRecovered(r)
	if err != nil {
		exec.End(trace.A("error", err.Error()))
		run.Close()
		return nil, err
	}
	exec.End()
	write := span.Child("artifact-write")
	for _, e := range res.Summary() {
		run.Summarize(e.Key, e.Value)
	}
	err = os.WriteFile(filepath.Join(dir, telemetry.OutcomeFile), outcome, 0o644)
	if cerr := run.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		write.End(trace.A("error", err.Error()))
	} else {
		write.End()
	}
	return run.Registry(), err
}

// runRecovered runs r to its outcome, turning a panic anywhere under it —
// the engine, a telemetry sink, the caller's tee — into an error: every
// executor comes through here, and a cell that cannot run must fail that
// cell, not the process holding the other cells.
func runRecovered(r *scenario.Runner) (res *scenario.Result, outcome []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("fleet: cell panicked: %v", p)
		}
	}()
	return r.RunOutcome()
}
