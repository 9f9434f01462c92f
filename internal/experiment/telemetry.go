package experiment

import (
	"fmt"
	"io"
	"time"

	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/units"
)

// heartbeatTicks is how many heartbeat events a run emits over its horizon.
const heartbeatTicks = 20

// fctBounds are the fct_us histogram bucket upper bounds in microseconds:
// 100µs to 10s in decades, spanning the paper's small-flow and large-flow
// completion-time ranges.
var fctBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// Hooks are the observers a caller may attach to a run; StaticConfig and
// DynamicConfig embed them. None changes a simulated outcome.
type Hooks struct {
	// Telemetry, when non-nil, streams the run's metric registry and
	// sim-time event log into the run's artifact directory; the caller
	// owns (and closes) the Run.
	Telemetry *telemetry.Run
	// Progress, when non-nil, receives human-readable wall-clock progress
	// lines (typically os.Stderr); it never feeds the artifacts.
	Progress io.Writer

	// Spans, when non-nil, receives a retroactive sim-time "sim" span for
	// the run (the static run adds "warmup"/"measure" children), parented
	// under SpanParent. Sim spans carry simulated time only — wall-clock
	// values must never reach them (scenario's TestSimSpansReplay compares
	// two runs' spans).
	Spans      *trace.Tracer
	SpanParent string
}

// singleStream reports whether a sink is attached — a telemetry Run or a
// progress writer — for the heartbeat to write to.
func (h Hooks) singleStream() bool { return h.Telemetry != nil || h.Progress != nil }

// observe is the run scaffold both runners share. With telemetry attached it
// registers the event loop's series — events processed and pending, the
// heap's high-water mark, free-list reuse (which tracks processed events when
// the loop runs allocation-free) and the virtual clock — and then the
// runner's own through series; with any sink attached it arms the heartbeat
// over horizon — after everything the runner scheduled, so the tick order of
// a run is fixed — then drives loop and stops the heartbeat.
func (h Hooks) observe(s *sim.Simulator, horizon units.Duration, series func(reg *telemetry.Registry, run *telemetry.Run), loop func()) {
	var ew telemetry.EventWriter
	if run := h.Telemetry; run != nil {
		ew = run
		reg := run.Registry()
		reg.CounterFunc("sim_events_processed_total", func() int64 { return int64(s.Processed()) })
		reg.GaugeFunc("sim_events_pending", func() int64 { return int64(s.Pending()) })
		reg.GaugeFunc("sim_heap_max_depth", func() int64 { return int64(s.MaxPending()) })
		reg.CounterFunc("sim_event_pool_reuse_total", func() int64 { return int64(s.PoolReuse()) })
		reg.GaugeFunc("sim_now_ps", func() int64 { return int64(s.Now()) })
		series(reg, run)
	}
	if h.singleStream() {
		defer startHeartbeat(s, horizon, ew, h.Progress)()
	}
	loop()
}

// simSpan records the run's retroactive "sim" span over [0, end] and returns
// its id ("" without a tracer).
func (h Hooks) simSpan(end units.Time, attrs ...trace.Attr) string {
	return h.Spans.SimSpan("sim", h.SpanParent, 0, end, attrs...)
}

// startHeartbeat arms a periodic sim-time heartbeat over the run horizon:
// each tick appends a "heartbeat" event to the artifact stream (ew non-nil)
// and writes a wall-clock progress line to w (w non-nil). The events carry
// sim-derived values only, so they never break byte-identical replay; the
// wall clock is confined to the progress stream. Returns a stop function.
func startHeartbeat(s *sim.Simulator, horizon units.Duration, ew telemetry.EventWriter, w io.Writer) func() {
	every := horizon / heartbeatTicks
	if every <= 0 {
		every = units.Millisecond
	}
	start := time.Now() //dynaqlint:allow determinism wall-clock feeds the stderr progress stream only, never the artifacts
	return s.Every(every, func() {
		if ew != nil {
			ew.Event(s.Now(), "heartbeat",
				telemetry.F("events", int64(s.Processed())),
				telemetry.F("pending", s.Pending()))
		}
		if w != nil {
			wall := time.Since(start).Round(time.Millisecond) //dynaqlint:allow determinism wall-clock feeds the stderr progress stream only, never the artifacts
			fmt.Fprintf(w, "dynaq: t=%v events=%d pending=%d wall=%v\n",
				s.Now(), s.Processed(), s.Pending(), wall)
		}
	})
}
