package scenario

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"dynaq/internal/buffer"
	"dynaq/internal/faults"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// This file names every series and event a cell emits, but the throughput
// and qlen events, which the static run's samplers (static.go) write as they
// take each sample. The engines expose accessors and this file registers
// closures over them, so no engine package imports telemetry.

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

// instrument registers the world's series: every switch port's, transport
// totals over all endpoints (cardinality independent of host count), applied
// fault transitions — each also streamed into the event log as it fires —
// the guardrail total and the whole-topology link loss and corruption.
func (w *packetWorld) instrument(reg *telemetry.Registry, run *telemetry.Run) {
	w.net.EachPort(func(label string, p *netsim.Port) { portSeries(reg, label, p) })

	total := func(f func(*transport.Endpoint) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, ep := range w.net.Endpoints {
				t += f(ep)
			}
			return t
		}
	}
	sent := func(f func(transport.SenderStats) int64) func() int64 {
		return total(func(ep *transport.Endpoint) int64 { return f(ep.TotalStats()) })
	}
	reg.CounterFunc("transport_sent_packets_total", sent(func(s transport.SenderStats) int64 { return s.SentPackets }))
	reg.CounterFunc("transport_sent_bytes_total", sent(func(s transport.SenderStats) int64 { return int64(s.SentBytes) }))
	reg.CounterFunc("transport_retransmits_total", sent(func(s transport.SenderStats) int64 { return s.Retransmits }))
	reg.CounterFunc("transport_timeouts_total", sent(func(s transport.SenderStats) int64 { return s.Timeouts }))
	reg.CounterFunc("transport_fast_recoveries_total", sent(func(s transport.SenderStats) int64 { return s.FastRecovers }))
	reg.CounterFunc("transport_echoed_acks_total", sent(func(s transport.SenderStats) int64 { return s.EchoedAcks }))
	reg.CounterFunc("transport_acks_total", total((*transport.Endpoint).AcksSent))
	reg.GaugeFunc("transport_cwnd_bytes", total((*transport.Endpoint).CwndTotal))
	reg.GaugeFunc("transport_flows_active", total(func(ep *transport.Endpoint) int64 { return int64(ep.ActiveFlows()) }))

	if w.faults != nil {
		reg.CounterFunc("faults_transitions_total", func() int64 { return int64(w.faults.Applied()) })
		w.faults.SetObserver(func(tr faults.Transition) {
			run.Event(tr.At, "fault",
				telemetry.F("target", tr.Target),
				telemetry.F("action", tr.Action))
		})
	}
	if w.guard != nil {
		reg.CounterFunc("guard_violations_total", w.guard.Total)
	}
	if w.links != nil {
		reg.CounterFunc("faults_link_lost_total", func() int64 {
			lost, _ := w.links.Totals()
			return lost
		})
		reg.CounterFunc("faults_link_corrupted_total", func() int64 {
			_, corrupted := w.links.Totals()
			return corrupted
		})
	}
}

// portSeries registers one switch port's counters and live queue state under
// port=label, per-queue ones also under queue=<i>. Every series reads a
// counter the port's hot path already keeps, so they cost nothing per
// packet. Drops are split by cause; the causes are disjoint and sum to
// everything the port or its wire discarded. A DynaQ-family port adds the
// paper's §V per-instant state (T_i, S_i, satisfied), DynaQ its Algorithm-1
// counters, and a shared-memory port its pool.
func portSeries(reg *telemetry.Registry, label string, p *netsim.Port) {
	pl := telemetry.L("port", label)
	reg.CounterFunc("port_enqueued_total", func() int64 { return p.Stats().Enqueued }, pl)
	reg.CounterFunc("port_tx_packets_total", func() int64 { return p.Stats().TxPackets }, pl)
	reg.CounterFunc("port_tx_bytes_total", func() int64 { return int64(p.Stats().TxBytes) }, pl)
	reg.CounterFunc("port_marked_total", func() int64 { return p.Stats().Marked }, pl)
	reg.CounterFunc("port_misclassified_total", func() int64 { return p.Stats().Misclassified }, pl)
	reg.GaugeFunc("port_occupancy_bytes", func() int64 { return int64(p.TotalLen()) }, pl)
	reg.GaugeFunc("port_buffer_bytes", func() int64 { return int64(p.Buffer()) }, pl)
	cause := func(c string) telemetry.Label { return telemetry.L("cause", c) }
	reg.CounterFunc("port_drops_total", func() int64 { s := p.Stats(); return s.Dropped - s.PoolDrops }, pl, cause("admission"))
	reg.CounterFunc("port_drops_total", func() int64 { return p.Stats().PoolDrops }, pl, cause("pool"))
	reg.CounterFunc("port_drops_total", func() int64 { return p.Stats().DequeueDrops }, pl, cause("dequeue"))
	reg.CounterFunc("port_drops_total", func() int64 { return p.Stats().Evicted }, pl, cause("evict"))
	reg.CounterFunc("port_drops_total", func() int64 { return p.Link().Lost() }, pl, cause("link"))
	reg.CounterFunc("port_drops_total", func() int64 { return p.Link().Corrupted() }, pl, cause("corrupt"))

	for i := 0; i < p.NumQueues(); i++ {
		ql := telemetry.L("queue", strconv.Itoa(i))
		reg.GaugeFunc("queue_occupancy_bytes", func() int64 { return int64(p.QueueLen(i)) }, pl, ql)
		reg.CounterFunc("queue_tx_bytes_total", func() int64 { return int64(p.QueueTxBytes(i)) }, pl, ql)
		reg.CounterFunc("queue_drops_total", func() int64 { return p.QueueDrops(i) }, pl, ql)
	}

	if ts, ok := p.Admission().(buffer.ThresholdState); ok {
		st := ts.State()
		for i := 0; i < st.NumQueues(); i++ {
			ql := telemetry.L("queue", strconv.Itoa(i))
			reg.GaugeFunc("dynaq_threshold_bytes", func() int64 { return int64(st.Threshold(i)) }, pl, ql)
			reg.GaugeFunc("dynaq_satisfaction_bytes", func() int64 { return int64(st.Satisfaction(i)) }, pl, ql)
			reg.GaugeFunc("dynaq_satisfied", func() int64 {
				if st.Satisfied(i) {
					return 1
				}
				return 0
			}, pl, ql)
		}
	}
	if d, ok := p.Admission().(*buffer.DynaQ); ok {
		reg.CounterFunc("dynaq_adjustments_total", d.Adjustments, pl)
		reg.CounterFunc("dynaq_algorithm_drops_total", d.AlgorithmDrops, pl)
		for i := 0; i < d.State().NumQueues(); i++ {
			reg.CounterFunc("dynaq_satisfied_transitions_total",
				func() int64 { return d.SatisfiedTransitions(i) },
				pl, telemetry.L("queue", strconv.Itoa(i)))
		}
	}
	if pool := p.Pool(); pool != nil {
		reg.GaugeFunc("pool_used_bytes", func() int64 { return int64(pool.Used()) }, pl)
		reg.GaugeFunc("pool_total_bytes", func() int64 { return int64(pool.Total()) }, pl)
	}
}

// instrument registers the fluid engine's counters.
func (e *fluidEngine) instrument(reg *telemetry.Registry, _ *telemetry.Run) {
	st := e.fe.Stats
	reg.CounterFunc("flowsim_recomputes_total", func() int64 { return st().Recomputes })
	reg.CounterFunc("flowsim_demotions_total", func() int64 { return st().Demotions })
	reg.CounterFunc("flowsim_promotions_total", func() int64 { return st().Promotions })
	reg.CounterFunc("flowsim_packetized_packets_total", func() int64 { return st().PacketizedPackets })
	reg.CounterFunc("flowsim_packetized_drops_total", func() int64 { return st().PacketizedDrops })
	reg.CounterFunc("flowsim_packetized_marks_total", func() int64 { return st().PacketizedMarks })
	reg.CounterFunc("flowsim_fluid_drop_bytes_total", func() int64 { return st().FluidDropBytes })
	reg.CounterFunc("flowsim_threshold_crossings_total", func() int64 { return st().ThresholdCrossings })
}

// fctSeries registers an fct run's flow accounting: flows generated (read
// from generated), flows completed (the FCT collector's length) and the FCT
// histogram, which it returns for the run to observe each completion into.
func fctSeries(reg *telemetry.Registry, generated func() int64, fct *metrics.FCTCollector) *telemetry.Histogram {
	reg.CounterFunc("flows_generated_total", generated)
	reg.CounterFunc("flows_completed_total", func() int64 { return int64(fct.Len()) })
	return reg.Histogram("fct_us", fctBounds)
}

// staticSeries registers a static run's bottleneck instruments: the
// throughput sampler's per-queue and aggregate rates as of its last sample
// and its sample count, the queue trace's kept-sample count, and the event
// recorder's per-kind totals. qt and rec are nil when the run keeps none.
func staticSeries(reg *telemetry.Registry, ts *throughputSampler, qt *queueTrace, rec *metrics.EventRecorder) {
	pl := telemetry.L("port", ts.label)
	last := func(f func(metrics.ThroughputSample) units.Rate) func() int64 {
		return func() int64 {
			if n := len(ts.samples); n > 0 {
				return int64(f(ts.samples[n-1]))
			}
			return 0
		}
	}
	for i := 0; i < ts.port.NumQueues(); i++ {
		reg.GaugeFunc("throughput_bps", last(func(s metrics.ThroughputSample) units.Rate { return s.PerQueue[i] }),
			pl, telemetry.L("queue", strconv.Itoa(i)))
	}
	reg.GaugeFunc("throughput_aggregate_bps", last(func(s metrics.ThroughputSample) units.Rate { return s.Aggregate }), pl)
	reg.CounterFunc("throughput_samples_total", func() int64 { return int64(len(ts.samples)) }, pl)
	if qt != nil {
		reg.CounterFunc("queue_trace_samples_total", func() int64 { return int64(len(qt.samples)) }, pl)
	}
	if rec != nil {
		// The kinds are netsim's iota range; the registry dumps by id.
		for k := netsim.EvEnqueue; k <= netsim.EvLinkCorrupt; k++ {
			reg.CounterFunc("trace_events_total", func() int64 { return rec.Count(k) }, telemetry.L("kind", k.String()))
		}
	}
}
