package metrics

import (
	"dynaq/internal/netsim"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// ThroughputSample is one interval's per-queue delivered rates at a port.
type ThroughputSample struct {
	At        units.Time
	PerQueue  []units.Rate
	Aggregate units.Rate
}

// ThroughputSampler periodically differences a port's per-queue transmit
// counters — the paper's "measure per-queue throughput every 0.5 seconds"
// (testbed) / "every 10ms" (simulation).
type ThroughputSampler struct {
	sim      *sim.Simulator
	port     *netsim.Port
	interval units.Duration
	prev     []units.ByteSize
	samples  []ThroughputSample
	tick     sim.EventRef
	publish  func(now units.Time, per []units.Rate, agg units.Rate) // set by Publish
}

// NewThroughputSampler attaches a sampler to port with the given interval
// and starts it immediately. Each sample re-arms the next through the
// simulator's free list, so long runs sample without allocating events.
func NewThroughputSampler(s *sim.Simulator, port *netsim.Port, interval units.Duration) *ThroughputSampler {
	if interval <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	ts := &ThroughputSampler{
		sim:      s,
		port:     port,
		interval: interval,
		prev:     make([]units.ByteSize, port.NumQueues()),
	}
	ts.tick = s.AfterCall(interval, samplerTick, ts)
	return ts
}

// samplerTick is the event function of a sampler's tick: take the sample,
// then schedule the next.
func samplerTick(arg any) {
	ts := arg.(*ThroughputSampler)
	ts.sample(ts.sim.Now())
	ts.tick = ts.sim.AfterCall(ts.interval, samplerTick, ts)
}

func (ts *ThroughputSampler) sample(now units.Time) {
	n := ts.port.NumQueues()
	per := make([]units.Rate, n)
	var agg units.Rate
	for i := 0; i < n; i++ {
		cur := ts.port.QueueTxBytes(i)
		per[i] = units.Throughput(cur-ts.prev[i], ts.interval)
		ts.prev[i] = cur
		agg += per[i]
	}
	ts.samples = append(ts.samples, ThroughputSample{At: now, PerQueue: per, Aggregate: agg})
	if ts.publish != nil {
		ts.publish(now, per, agg)
	}
}

// Stop halts sampling.
func (ts *ThroughputSampler) Stop() { ts.sim.Cancel(ts.tick) }

// Samples returns the collected series.
func (ts *ThroughputSampler) Samples() []ThroughputSample { return ts.samples }

// QueueSample is one enqueue/dequeue-triggered occupancy snapshot.
type QueueSample struct {
	At       units.Time
	PerQueue []units.ByteSize
}

// QueueTrace records per-queue occupancy on every enqueue and dequeue
// operation, the paper's queue-evolution measurement ("we measure per-queue
// buffer occupancy every enqueueing and dequeueing operations and obtain 1K
// sequential samples"). Stride-decimation keeps memory bounded on long
// runs.
type QueueTrace struct {
	stride  int
	count   int
	samples []QueueSample
	publish func(now units.Time, per []units.ByteSize) // set by Publish
}

// NewQueueTrace attaches a trace to port, keeping every stride-th sample
// (stride 1 keeps all).
func NewQueueTrace(port *netsim.Port, stride int) *QueueTrace {
	if stride < 1 {
		stride = 1
	}
	qt := &QueueTrace{stride: stride}
	port.Observe(qt)
	return qt
}

// ObservePort implements netsim.PortObserver.
func (qt *QueueTrace) ObservePort(now units.Time, p *netsim.Port) {
	qt.count++
	if qt.count%qt.stride != 0 {
		return
	}
	per := make([]units.ByteSize, p.NumQueues())
	for i := range per {
		per[i] = p.QueueLen(i)
	}
	qt.samples = append(qt.samples, QueueSample{At: now, PerQueue: per})
	if qt.publish != nil {
		qt.publish(now, per)
	}
}

// Samples returns all kept samples.
func (qt *QueueTrace) Samples() []QueueSample { return qt.samples }
