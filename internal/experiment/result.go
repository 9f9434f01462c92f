package experiment

import (
	"strconv"

	"dynaq/internal/faults"
	"dynaq/internal/flowsim"
	"dynaq/internal/metrics"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// FaultOutcome is what a packet run's fault schedule and guardrail left
// behind; StaticResult and DynamicResult embed it.
type FaultOutcome struct {
	// FaultTimeline is the applied fault transitions (empty without faults).
	FaultTimeline []faults.Transition
	// LinkLost / LinkCorrupted total the packets the faults blackholed or
	// corrupted across every link of the topology.
	LinkLost, LinkCorrupted int64
	// Violations holds the recorded guardrail violations (guard only);
	// ViolationTotal counts all of them, recorded or not.
	Violations     []faults.Violation
	ViolationTotal int64
}

// StaticResult is the outcome of a static-flow run.
type StaticResult struct {
	Scheme     Scheme
	Samples    []metrics.ThroughputSample
	QueueTrace []metrics.QueueSample
	// Drops counts enqueue drops at the bottleneck port, QueueDrops the
	// same per service queue, and Evicted the buffered packets the port
	// pushed out.
	Drops      int64
	QueueDrops []int64
	Evicted    int64
	// FCT holds the completion time of every finite flow.
	FCT *metrics.FCTCollector
	// Trace holds the bottleneck event recorder when the runner was asked
	// for one (scenario.Runner.SetTraceEvents).
	Trace *metrics.EventRecorder

	FaultOutcome
}

// Summary is the run's headline for a manifest, the same keys from every
// tool that writes one.
func (r *StaticResult) Summary() []telemetry.SummaryEntry {
	return []telemetry.SummaryEntry{
		{Key: "drops", Value: strconv.FormatInt(r.Drops, 10)},
		{Key: "samples", Value: strconv.Itoa(len(r.Samples))},
	}
}

// DynamicResult is the outcome of an FCT run.
type DynamicResult struct {
	Scheme    Scheme
	Load      float64
	FCT       *metrics.FCTCollector
	Generated int
	Completed int

	FaultOutcome

	// Events counts the discrete events the simulator processed — the
	// basis for comparing engine fidelities' costs.
	Events int64
	// Fluid holds the flow-engine counters (nil under the packet engine).
	Fluid *flowsim.Stats
}

// Summary is the run's headline for a manifest, the same keys from every
// tool that writes one.
func (r *DynamicResult) Summary() []telemetry.SummaryEntry {
	sum := []telemetry.SummaryEntry{
		{Key: "flows_generated", Value: strconv.Itoa(r.Generated)},
		{Key: "flows_completed", Value: strconv.Itoa(r.Completed)},
		{Key: "avg_fct_us_overall", Value: strconv.FormatInt(int64(r.FCT.Avg(metrics.AllFlows)/units.Microsecond), 10)},
	}
	if fl := r.Fluid; fl != nil {
		sum = append(sum,
			telemetry.SummaryEntry{Key: "events", Value: strconv.FormatInt(r.Events, 10)},
			telemetry.SummaryEntry{Key: "recomputes", Value: strconv.FormatInt(fl.Recomputes, 10)},
			telemetry.SummaryEntry{Key: "demotions", Value: strconv.FormatInt(fl.Demotions, 10)})
	}
	return sum
}

// Window returns the samples taken in (from, to]; samples are in time order.
func (r *StaticResult) Window(from, to units.Time) []metrics.ThroughputSample {
	lo := 0
	for lo < len(r.Samples) && r.Samples[lo].At <= from {
		lo++
	}
	hi := lo
	for hi < len(r.Samples) && r.Samples[hi].At <= to {
		hi++
	}
	return r.Samples[lo:hi]
}

// meanRate averages rate(sample) over the samples in (from, to].
func (r *StaticResult) meanRate(from, to units.Time, rate func(metrics.ThroughputSample) units.Rate) units.Rate {
	win := r.Window(from, to)
	if len(win) == 0 {
		return 0
	}
	var sum int64
	for _, s := range win {
		sum += int64(rate(s))
	}
	return units.Rate(sum / int64(len(win)))
}

// AvgThroughput averages per-queue throughput over samples in (from, to].
func (r *StaticResult) AvgThroughput(queue int, from, to units.Time) units.Rate {
	return r.meanRate(from, to, func(s metrics.ThroughputSample) units.Rate { return s.PerQueue[queue] })
}

// AvgAggregate averages total throughput over samples in (from, to].
func (r *StaticResult) AvgAggregate(from, to units.Time) units.Rate {
	return r.meanRate(from, to, func(s metrics.ThroughputSample) units.Rate { return s.Aggregate })
}

// ShareOf returns queue's mean share of the aggregate over (from, to].
func (r *StaticResult) ShareOf(queue int, from, to units.Time) float64 {
	var q, agg units.Rate
	for _, s := range r.Window(from, to) {
		q += s.PerQueue[queue]
		agg += s.Aggregate
	}
	if agg == 0 {
		return 0
	}
	return float64(q) / float64(agg)
}

// JainOver computes the mean Jain index across samples in (from, to],
// considering only the queues listed as active.
func (r *StaticResult) JainOver(active []int, from, to units.Time) float64 {
	win := r.Window(from, to)
	if len(win) == 0 {
		return 0
	}
	var sum float64
	xs := make([]float64, len(active))
	for _, s := range win {
		for i, q := range active {
			xs[i] = float64(s.PerQueue[q])
		}
		sum += metrics.Jain(xs)
	}
	return sum / float64(len(win))
}
