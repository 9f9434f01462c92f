// Package telemetry is the simulator's unified observability layer: a
// deterministic, sim-time-keyed metric registry plus structured run
// artifacts.
//
// The registry holds labeled series — counters, gauges, and fixed-bucket
// histograms, addressable as name{label="value",...} — that the hot paths
// (engine, ports, schemes, transports, fault engine) update or expose
// through snapshot functions. A Run binds a registry to an artifact
// directory and streams sim-time-keyed JSONL events next to a final metric
// dump and a run manifest.
//
// Determinism contract: all output is byte-stable. Series dump in
// lexicographic id order, JSON fields are hand-encoded in fixed order, all
// values are integers or strings (never floats formatted by locale- or
// map-order-dependent paths), and nothing reads the wall clock. Two runs of
// the same (scenario, seed) therefore produce identical artifact bytes —
// the property internal/experiment's determinism tests enforce.
//
// The registry is not safe for concurrent use: the simulator is
// single-goroutine by design (see internal/sim).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Label is one name dimension of a series.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// SeriesID renders the canonical series id: name{k="v",...} with labels
// sorted by key. A series with no labels is just the name.
func SeriesID(name string, labels []Label) string {
	if name == "" {
		panic("telemetry: empty series name")
	}
	if strings.ContainsAny(name, "{}\"\n") {
		panic(fmt.Sprintf("telemetry: series name %q contains reserved characters", name))
	}
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if l.Key == "" || strings.ContainsAny(l.Key, "{}=,\"\n") {
			panic(fmt.Sprintf("telemetry: label key %q contains reserved characters", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing int64.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter by n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decrement")
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a settable int64 instantaneous value.
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add shifts the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v += n }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-bucket int64 histogram: counts of observations ≤
// each bound, plus an overflow bucket, total count, and sum. Bounds are
// fixed at registration so two runs always dump the same shape.
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Bucket returns the count of bucket i (i == len(bounds) is the +Inf
// overflow bucket).
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// series is one registered entry. Exactly one of the value fields is set.
type series struct {
	id   string
	kind string // "counter" | "gauge" | "histogram"
	ctr  *Counter
	gge  *Gauge
	hist *Histogram
	fn   func() int64 // snapshot function for counterfunc/gaugefunc
}

// Registry is a set of labeled series with a deterministic dump order.
type Registry struct {
	series map[string]*series
	help   map[string]string // metric name → # HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// SetHelp registers the # HELP text WritePrometheus emits for a metric name
// (shared by every labeled series of that name). Empty text removes it;
// names without help text emit only their # TYPE line.
func (r *Registry) SetHelp(name, text string) {
	if text == "" {
		delete(r.help, name)
		return
	}
	r.help[name] = text
}

// register adds or fetches a series, panicking on a kind clash: two call
// sites registering the same id as different kinds is a programming error,
// and silently returning either would corrupt both.
func (r *Registry) register(id, kind string, make func() *series) *series {
	if s, ok := r.series[id]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: series %s registered as %s and %s", id, s.kind, kind))
		}
		return s
	}
	s := make()
	r.series[id] = s
	return s
}

// Counter returns the counter with the given name and labels, creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	id := SeriesID(name, labels)
	s := r.register(id, "counter", func() *series {
		return &series{id: id, kind: "counter", ctr: &Counter{}}
	})
	if s.ctr == nil {
		panic(fmt.Sprintf("telemetry: series %s is a counter func, not a settable counter", id))
	}
	return s.ctr
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	id := SeriesID(name, labels)
	s := r.register(id, "gauge", func() *series {
		return &series{id: id, kind: "gauge", gge: &Gauge{}}
	})
	if s.gge == nil {
		panic(fmt.Sprintf("telemetry: series %s is a gauge func, not a settable gauge", id))
	}
	return s.gge
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — the zero-hot-path-cost way to expose an existing int64 counter
// (port stats, sender stats). Re-registering the same id replaces fn.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	id := SeriesID(name, labels)
	s := r.register(id, "counter", func() *series {
		return &series{id: id, kind: "counter"}
	})
	if s.ctr != nil {
		panic(fmt.Sprintf("telemetry: series %s is a settable counter, not a counter func", id))
	}
	s.fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot time.
// Re-registering the same id replaces fn.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	id := SeriesID(name, labels)
	s := r.register(id, "gauge", func() *series {
		return &series{id: id, kind: "gauge"}
	})
	if s.gge != nil {
		panic(fmt.Sprintf("telemetry: series %s is a settable gauge, not a gauge func", id))
	}
	s.fn = fn
}

// Histogram returns the fixed-bucket histogram with the given name and
// labels, creating it on first use. Bounds must be strictly increasing; a
// second registration must pass identical bounds.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %d", i))
		}
	}
	id := SeriesID(name, labels)
	s := r.register(id, "histogram", func() *series {
		return &series{id: id, kind: "histogram", hist: &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}}
	})
	if len(s.hist.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: series %s re-registered with different bounds", id))
	}
	for i, b := range bounds {
		if s.hist.bounds[i] != b {
			panic(fmt.Sprintf("telemetry: series %s re-registered with different bounds", id))
		}
	}
	return s.hist
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.series) }

// Value returns the current value of a counter or gauge series by its
// canonical id, and whether the series exists. Histogram ids report their
// observation count.
func (r *Registry) Value(id string) (int64, bool) {
	s, ok := r.series[id]
	if !ok {
		return 0, false
	}
	switch {
	case s.ctr != nil:
		return s.ctr.Value(), true
	case s.gge != nil:
		return s.gge.Value(), true
	case s.hist != nil:
		return s.hist.Count(), true
	case s.fn != nil:
		return s.fn(), true
	}
	return 0, false
}

// WriteJSONL dumps every series as one JSON line, sorted by series id, with
// hand-encoded fixed field order so the bytes are stable across runs.
func (r *Registry) WriteJSONL(w io.Writer) error {
	var b []byte
	for _, sv := range r.Snapshot() {
		b = append(b[:0], `{"series":`...)
		b = strconv.AppendQuote(b, sv.ID)
		b = append(b, `,"type":`...)
		b = strconv.AppendQuote(b, sv.Kind)
		if sv.Kind == "histogram" {
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, sv.Value, 10)
			b = append(b, `,"sum":`...)
			b = strconv.AppendInt(b, sv.Sum, 10)
			b = append(b, `,"buckets":[`...)
			for i, bound := range sv.Bounds {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"le":`...)
				b = strconv.AppendInt(b, bound, 10)
				b = append(b, `,"n":`...)
				b = strconv.AppendInt(b, sv.Counts[i], 10)
				b = append(b, '}')
			}
			b = append(b, `,{"le":"+Inf","n":`...)
			b = strconv.AppendInt(b, sv.Counts[len(sv.Bounds)], 10)
			b = append(b, `}]}`...)
		} else {
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, sv.Value, 10)
			b = append(b, '}')
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
