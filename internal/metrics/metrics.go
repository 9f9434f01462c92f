// Package metrics holds what the paper's figures read: flow completion time
// collection with the small/large breakdown of §V, Jain's fairness index,
// the per-queue throughput and queue-length sample types, and a per-packet
// port event recorder. It names no telemetry series: the runs that take
// these measurements register them (internal/scenario).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"dynaq/internal/units"
)

// ThroughputSample is one interval's per-queue delivered rates at a port.
type ThroughputSample struct {
	At        units.Time
	PerQueue  []units.Rate
	Aggregate units.Rate
}

// QueueSample is one enqueue/dequeue-triggered occupancy snapshot.
type QueueSample struct {
	At       units.Time
	PerQueue []units.ByteSize
}

// Flow-size buckets (§V "Performance Metric"): small ≤ 100KB, large > 10MB,
// medium in between (the paper omits medium results as similar to overall).
const (
	SmallFlowMax = 100 * units.KB
	LargeFlowMin = 10 * units.MB
)

// Bucket classifies flows by size.
type Bucket uint8

// Buckets.
const (
	AllFlows Bucket = iota
	SmallFlows
	MediumFlows
	LargeFlows
)

// String implements fmt.Stringer.
func (b Bucket) String() string {
	switch b {
	case AllFlows:
		return "overall"
	case SmallFlows:
		return "small"
	case MediumFlows:
		return "medium"
	case LargeFlows:
		return "large"
	default:
		return fmt.Sprintf("Bucket(%d)", uint8(b))
	}
}

// BucketOf returns the bucket a flow of the given size falls in.
func BucketOf(size units.ByteSize) Bucket {
	switch {
	case size <= SmallFlowMax:
		return SmallFlows
	case size > LargeFlowMin:
		return LargeFlows
	default:
		return MediumFlows
	}
}

// FCTRecord is one completed flow.
type FCTRecord struct {
	Size units.ByteSize
	FCT  units.Duration
}

// FCTCollector accumulates flow completion times.
type FCTCollector struct {
	records []FCTRecord
}

// NewFCTCollector returns an empty collector.
func NewFCTCollector() *FCTCollector { return &FCTCollector{} }

// Add records a completed flow.
func (c *FCTCollector) Add(size units.ByteSize, fct units.Duration) {
	c.records = append(c.records, FCTRecord{Size: size, FCT: fct})
}

// Count returns the number of completions in the bucket.
func (c *FCTCollector) Count(b Bucket) int {
	n := 0
	for _, r := range c.records {
		if b == AllFlows || BucketOf(r.Size) == b {
			n++
		}
	}
	return n
}

// Avg returns the mean FCT over a bucket (0 when empty).
func (c *FCTCollector) Avg(b Bucket) units.Duration {
	var sum, n int64
	for _, r := range c.records {
		if b == AllFlows || BucketOf(r.Size) == b {
			sum += int64(r.FCT)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return units.Duration(sum / n)
}

// Percentile returns the p-quantile of the bucket's FCTs using the
// nearest-rank method. The edges are pinned explicitly rather than left to
// rank arithmetic: p ≤ 0 returns the minimum, p ≥ 1 the maximum, and a
// single-sample bucket returns that sample for every p. An empty bucket
// returns 0.
func (c *FCTCollector) Percentile(b Bucket, p float64) units.Duration {
	var xs []units.Duration
	for _, r := range c.records {
		if b == AllFlows || BucketOf(r.Size) == b {
			xs = append(xs, r.FCT)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	if p <= 0 {
		return xs[0]
	}
	if p >= 1 {
		return xs[len(xs)-1]
	}
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// Len returns the total number of completions recorded, across all buckets.
// Unlike Count(AllFlows) it does not scan, so run loops can poll it.
func (c *FCTCollector) Len() int { return len(c.records) }

// Records returns a copy of all completions.
func (c *FCTCollector) Records() []FCTRecord {
	return append([]FCTRecord(nil), c.records...)
}

// MarshalJSON encodes the collector as its records, "[]" when it has none.
func (c *FCTCollector) MarshalJSON() ([]byte, error) {
	if c.records == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(c.records)
}

// UnmarshalJSON decodes what MarshalJSON wrote into the same collector.
func (c *FCTCollector) UnmarshalJSON(data []byte) error {
	c.records = nil
	if err := json.Unmarshal(data, &c.records); err != nil || len(c.records) > 0 {
		return err
	}
	c.records = nil // as Add leaves an empty collector
	return nil
}

// Jain computes Jain's fairness index J = (Σx)² / (n·Σx²) over all n
// values given, zeros included. J = 1 for equal shares, 1/n for a single
// hog. An empty or all-zero input returns 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	//dynaqlint:allow float-eq exact-zero divide guard: only a true zero denominator would make the Jain index NaN
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// WeightedJain computes Jain's index over normalized shares x_i/w_i, so a
// perfectly weighted-fair allocation scores 1 regardless of the weights.
func WeightedJain(xs []float64, ws []int64) float64 {
	if len(xs) != len(ws) {
		panic("metrics: WeightedJain length mismatch")
	}
	norm := make([]float64, len(xs))
	for i := range xs {
		if ws[i] <= 0 {
			panic("metrics: WeightedJain needs positive weights")
		}
		norm[i] = xs[i] / float64(ws[i])
	}
	return Jain(norm)
}
