// Package dynaq is a reproduction of "Protocol-Independent Service Queue
// Isolation for Multi-Queue Data Centers" (Kim & Lee, ICDCS 2020): the
// DynaQ dynamic packet-dropping-threshold algorithm, the buffer-management
// schemes it is evaluated against, and a packet-level discrete-event
// network simulator (schedulers, TCP/CUBIC/DCTCP transports, star and
// leaf-spine topologies, empirical workloads) that regenerates every
// figure in the paper's evaluation.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so applications depend on a single import.
//
// # The algorithm
//
// A DynaQ State tracks one packet-dropping threshold per service queue of
// a switch port and adjusts them on every packet arrival (Algorithm 1):
//
//	st := dynaq.MustNew(85*dynaq.KB, []int64{1, 1, 1, 1})
//	res := st.Process(queue, pktSize, queueLens)
//	switch res.Verdict {
//	case dynaq.Drop:     // protect unsatisfied active queues: drop
//	case dynaq.Adjusted: // threshold stolen from res.Victim: enqueue
//	case dynaq.Pass:     // within threshold: enqueue
//	}
//
// # Simulation
//
// NewStarNetwork and NewLeafSpineNetwork assemble complete simulated
// networks whose switch ports run any Scheme; see examples/ for runnable
// scenarios and RunFig* for the paper's experiments.
package dynaq

import (
	"dynaq/internal/core"
	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// Quantities (see internal/units): simulated time is picosecond-resolution.
type (
	// Time is a point in simulated time.
	Time = units.Time
	// Duration is a span of simulated time.
	Duration = units.Duration
	// ByteSize is a data quantity in bytes.
	ByteSize = units.ByteSize
	// Rate is a link or flow rate in bits per second.
	Rate = units.Rate
)

// Common quantity constants.
const (
	Picosecond  = units.Picosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	KB = units.KB
	MB = units.MB

	Gbps = units.Gbps
)

// BDP returns the bandwidth-delay product C·RTT in bytes.
func BDP(c Rate, rtt Duration) ByteSize { return units.BDP(c, rtt) }

// Throughput returns the average rate of b bytes delivered over d.
func Throughput(b ByteSize, d Duration) Rate { return units.Throughput(b, d) }

// The DynaQ algorithm (see internal/core).
type (
	// State is a port's DynaQ threshold state (Algorithm 1).
	State = core.State
	// QueueLenFunc adapts a function to the per-queue backlogs Process
	// reads.
	QueueLenFunc = core.QueueLenFunc
	// ECNMode is DynaQ's PMSB-style marking mode (§III-B3).
	ECNMode = core.ECNMode
)

// Verdicts.
const (
	Pass     = core.Pass
	Adjusted = core.Adjusted
	Drop     = core.Drop
)

// New builds DynaQ state for a port with buffer b and scheduler weights.
func New(b ByteSize, weights []int64) (*State, error) { return core.New(b, weights) }

// MustNew is New but panics on error.
func MustNew(b ByteSize, weights []int64) *State { return core.MustNew(b, weights) }

// NewECNMode builds DynaQ's ECN marking mode with port threshold k.
func NewECNMode(k ByteSize, weights []int64) (*ECNMode, error) {
	return core.NewECNMode(k, weights)
}

// CycleCost returns Algorithm 1's worst-case ASIC cycle count for m queues
// (§IV-A: 7 for m = 8).
func CycleCost(m int) int { return core.CycleCost(m) }

// Schemes and schedulers (see internal/experiment).
type (
	// Scheme identifies a buffer-management scheme.
	Scheme = experiment.Scheme
	// SchedKind identifies a packet scheduler.
	SchedKind = experiment.SchedKind
	// SchemeParams carries threshold constants for scheme construction.
	SchemeParams = experiment.SchemeParams
)

// Buffer-management schemes.
const (
	SchemeBestEffort = experiment.BestEffort
	SchemeDynaQ      = experiment.DynaQ
	SchemeBarberQ    = experiment.BarberQ

	// DynaQ design-choice ablations (§III-B).
	SchemeDynaQNaiveVictim = experiment.DynaQNaiveVictim
	SchemeDynaQWBDP        = experiment.DynaQWBDP

	// SchemeDynaQTofino is the §IV-A programmable-switch model (Algorithm
	// 1 on dequeue-time-stale queue lengths).
	SchemeDynaQTofino = experiment.DynaQTofino
)

// Packet schedulers.
const (
	DRR    = experiment.SchedDRR
	SPQDRR = experiment.SchedSPQDRR
)

// Simulation building blocks.
type (
	// Simulator is the discrete-event engine.
	Simulator = sim.Simulator
	// FlowID identifies a transport flow.
	FlowID = packet.FlowID
	// Port is a switch output port (or host NIC).
	Port = netsim.Port
	// FlowConfig describes a flow to start.
	FlowConfig = transport.FlowConfig
	// Controller is a congestion-control algorithm.
	Controller = transport.Controller
	// StarNetwork is a single-switch rack.
	StarNetwork = topology.Star
	// LeafSpineNetwork is a two-tier fabric.
	LeafSpineNetwork = topology.LeafSpine
	// CDF is an empirical flow-size distribution.
	CDF = workload.CDF
	// FlowGen draws Poisson flow arrivals from a CDF.
	FlowGen = workload.FlowGen
	// FCTCollector accumulates flow completion times.
	FCTCollector = metrics.FCTCollector
	// ThroughputSampler samples per-queue throughput at a port.
	ThroughputSampler = metrics.ThroughputSampler
)

// NewSimulator returns an empty discrete-event simulator.
func NewSimulator() *Simulator { return sim.New() }

// NewRenoController returns NewReno TCP (the paper's generic "TCP").
func NewRenoController() Controller { return transport.NewReno() }

// NewCubicController returns CUBIC.
func NewCubicController() Controller { return transport.NewCubic() }

// NewDCTCPController returns DCTCP (set FlowConfig.ECN on its flows).
func NewDCTCPController() Controller { return transport.NewDCTCP() }

// NewECNRenoController returns classic RFC 3168 ECN on NewReno (set
// FlowConfig.ECN on its flows).
func NewECNRenoController() Controller { return transport.NewECNReno() }

// NewTimelyController returns a TIMELY-like delay-based controller (§II-B
// cites delay-based transports as DynaQ's motivation).
func NewTimelyController() Controller { return transport.NewTimely() }

// StarConfig configures NewStarNetwork.
type StarConfig struct {
	// Hosts is the number of end hosts (≥ 2).
	Hosts int
	// Rate is the speed of every link.
	Rate Rate
	// Delay is per-link propagation; the base RTT is 4·Delay.
	Delay Duration
	// Buffer is the switch per-port buffer size B.
	Buffer ByteSize
	// Queues is the number of service queues per port.
	Queues int
	// Scheme is the buffer-management scheme on every port.
	Scheme Scheme
	// Sched is the packet scheduler on every port.
	Sched SchedKind
	// Weights are the scheduler weights (equal when nil). For SPQDRR they
	// include the strict-priority queue at index 0.
	Weights []int64
	// MTU is the frame size (1500 when zero).
	MTU ByteSize
	// Params optionally tunes scheme thresholds; Rate/BaseRTT/Weights are
	// filled automatically.
	Params SchemeParams
}

// portDefaults fills a network config's unset port settings: DynaQ under DRR
// with 1500-byte frames.
func portDefaults(scheme Scheme, kind SchedKind, mtu ByteSize) (Scheme, SchedKind, ByteSize) {
	if scheme == "" {
		scheme = SchemeDynaQ
	}
	if kind == "" {
		kind = DRR
	}
	if mtu == 0 {
		mtu = 1500
	}
	return scheme, kind, mtu
}

// NewStarNetwork assembles a single-switch rack whose every port runs the
// configured scheme and scheduler.
func NewStarNetwork(s *Simulator, cfg StarConfig) (*StarNetwork, error) {
	scheme, kind, mtu := portDefaults(cfg.Scheme, cfg.Sched, cfg.MTU)
	p := cfg.Params.Resolved(cfg.Rate, fabric.Star.BaseRTT(cfg.Delay), mtu, cfg.Weights, cfg.Queues)
	return topology.NewStar(s, topology.StarConfig{
		Hosts:     cfg.Hosts,
		Rate:      cfg.Rate,
		Delay:     cfg.Delay,
		Buffer:    cfg.Buffer,
		Queues:    cfg.Queues,
		Factories: experiment.Factories(scheme, kind, p, mtu),
	})
}

// LeafSpineConfig configures NewLeafSpineNetwork.
type LeafSpineConfig struct {
	Leaves, Spines, HostsPerLeaf int
	Rate                         Rate
	// Delay is per-link propagation; the spine-crossing base RTT is
	// 8·Delay.
	Delay   Duration
	Buffer  ByteSize
	Queues  int
	Scheme  Scheme
	Sched   SchedKind
	Weights []int64
	MTU     ByteSize
	Params  SchemeParams
}

// NewLeafSpineNetwork assembles a two-tier ECMP fabric.
func NewLeafSpineNetwork(s *Simulator, cfg LeafSpineConfig) (*LeafSpineNetwork, error) {
	scheme, kind, mtu := portDefaults(cfg.Scheme, cfg.Sched, cfg.MTU)
	p := cfg.Params.Resolved(cfg.Rate, fabric.LeafSpine.BaseRTT(cfg.Delay), mtu, cfg.Weights, cfg.Queues)
	return topology.NewLeafSpine(s, topology.LeafSpineConfig{
		Leaves:       cfg.Leaves,
		Spines:       cfg.Spines,
		HostsPerLeaf: cfg.HostsPerLeaf,
		Rate:         cfg.Rate,
		Delay:        cfg.Delay,
		Buffer:       cfg.Buffer,
		Queues:       cfg.Queues,
		Factories:    experiment.Factories(scheme, kind, p, mtu),
	})
}

// Workloads (Figure 2).
var (
	// WebSearch is the DCTCP web-search workload.
	WebSearch = workload.WebSearch
	// DataMining is the VL2 data-mining workload.
	DataMining = workload.DataMining
	// CacheWorkload is Facebook's cache workload.
	CacheWorkload = workload.Cache
	// HadoopWorkload is Facebook's hadoop workload.
	HadoopWorkload = workload.Hadoop
)

// NewFlowGen builds a Poisson flow generator loading capacity·load.
func NewFlowGen(seed int64, cdf *CDF, capacity Rate, load float64) (*FlowGen, error) {
	return workload.NewFlowGen(seed, cdf, capacity, load)
}

// NewThroughputSampler attaches a per-queue throughput sampler to a port.
func NewThroughputSampler(s *Simulator, p *Port, interval Duration) *ThroughputSampler {
	return metrics.NewThroughputSampler(s, p, interval)
}

// NewFCTCollector returns an empty flow-completion-time collector.
func NewFCTCollector() *FCTCollector { return metrics.NewFCTCollector() }

// Flow-size buckets (§V: small ≤ 100KB, large > 10MB).
const (
	AllFlows   = metrics.AllFlows
	SmallFlows = metrics.SmallFlows
	LargeFlows = metrics.LargeFlows
)

// Jain computes Jain's fairness index.
func Jain(xs []float64) float64 { return metrics.Jain(xs) }

// Experiments (one per paper figure; see cmd/experiments).
type Options = experiment.Options

// ScaleQuick runs an experiment in seconds.
const ScaleQuick = experiment.Quick

// Figure runners. Each reproduces the corresponding evaluation figure.
var (
	RunFig1  = experiment.Fig1
	RunFig3  = experiment.Fig3
	RunFig4  = experiment.Fig3 // the queue-evolution view of the same runs
	RunFig5  = experiment.Fig5
	RunFig6  = experiment.Fig6
	RunFig7  = experiment.Fig7
	RunFig8  = experiment.Fig8
	RunFig9  = experiment.Fig9
	RunFig10 = experiment.Fig10
	RunFig11 = experiment.Fig11
	RunFig12 = experiment.Fig12
	RunFig13 = experiment.Fig13

	// RunExtClosedLoop is Fig. 8 under the §V-A2 request/response traffic
	// (see EXPERIMENTS.md).
	RunExtClosedLoop = experiment.ExtClosedLoop
)

// SeedStats summarizes a metric across seeds (see RunSeeds).
type SeedStats = experiment.SeedStats

// RunSeeds repeats a scalar-metric experiment across n derived seeds and
// aggregates mean/std/min/max.
func RunSeeds(n int, base Options, run func(Options) (float64, error)) (SeedStats, error) {
	return experiment.RunSeeds(n, base, run)
}

// EventRecorder collects per-packet port events.
type EventRecorder = metrics.EventRecorder

// Port event kinds.
const (
	EvEnqueue  = netsim.EvEnqueue
	EvDrop     = netsim.EvDrop
	EvEvict    = netsim.EvEvict
	EvTransmit = netsim.EvTransmit
)

// NewEventRecorder builds a bounded per-packet event recorder; attach it
// with rec.Attach(port).
func NewEventRecorder(capacity int) (*EventRecorder, error) {
	return metrics.NewEventRecorder(capacity)
}
