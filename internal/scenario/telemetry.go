package scenario

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

// hooks are the observers a caller attaches to a Runner. None changes a
// simulated outcome.
type hooks struct {
	// run, when non-nil, streams the run's metric registry and sim-time
	// event log into the run's artifact directory; the caller owns (and
	// closes) it.
	run *telemetry.Run
	// progress, when non-nil, receives human-readable wall-clock progress
	// lines (typically os.Stderr); it never feeds the artifacts.
	progress io.Writer

	// spans, when non-nil, receives a retroactive sim-time "sim" span for
	// the run (the static run adds "warmup"/"measure" children), parented
	// under spanParent. Sim spans carry simulated time only — wall-clock
	// values must never reach them (TestSimSpansReplay compares two runs'
	// spans).
	spans      *trace.Tracer
	spanParent string
}

// observe is the run scaffold both runners share. With telemetry attached it
// registers the event loop's series — events processed and pending, the
// heap's high-water mark, free-list reuse (which tracks processed events when
// the loop runs allocation-free) and the virtual clock — and then the
// runner's own through series; with any sink attached it arms the heartbeat
// over horizon — after everything the runner scheduled, so the tick order of
// a run is fixed — then drives loop and stops the heartbeat.
func (h *hooks) observe(s *sim.Simulator, horizon units.Duration, series func(reg *telemetry.Registry, run *telemetry.Run), loop func()) {
	var ew telemetry.EventWriter
	if run := h.run; run != nil {
		ew = run
		reg := run.Registry()
		reg.CounterFunc("sim_events_processed_total", func() int64 { return int64(s.Processed()) })
		reg.GaugeFunc("sim_events_pending", func() int64 { return int64(s.Pending()) })
		reg.GaugeFunc("sim_heap_max_depth", func() int64 { return int64(s.MaxPending()) })
		reg.CounterFunc("sim_event_pool_reuse_total", func() int64 { return int64(s.PoolReuse()) })
		reg.GaugeFunc("sim_now_ps", func() int64 { return int64(s.Now()) })
		series(reg, run)
	}
	if h.run != nil || h.progress != nil {
		defer startHeartbeat(s, horizon, ew, h.progress)()
	}
	loop()
}

// simSpan records the run's retroactive "sim" span over [0, end] and returns
// its id ("" without a tracer).
func (h *hooks) simSpan(end units.Time, attrs ...trace.Attr) string {
	return h.spans.SimSpan("sim", h.spanParent, 0, end, attrs...)
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
