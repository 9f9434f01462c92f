// Package flowsim is the flow-level (fluid) fast path of the simulator.
//
// Where internal/netsim moves individual packets through switch ports, this
// package models each active flow as a rate process: the set of concurrent
// flows is solved with progressive max-min filling (water-filling over
// bottleneck links) and advanced between rate-recomputation events — flow
// arrival, flow completion, slow-start epoch, threshold crossing — instead
// of per-packet events. A hybrid controller re-packetizes individual links
// through the real buffer-management schemes exactly when buffer precision
// matters (see hybrid.go), which is what keeps DynaQ/DT/PQL threshold
// behaviour honest while everything uncongested stays fluid.
//
// Everything is integer arithmetic on units types (picosecond time, bps
// rates, byte sizes): the engine is deterministic, byte-stable across runs,
// and safe under the repo's determinism lint.
package flowsim

import (
	"fmt"
	"math/bits"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/packet"
	"dynaq/internal/pias"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/units"
)

// Config assembles a flow-level engine over a Topology.
type Config struct {
	Topo *Topology

	// Queues counts service queues per port (queue 0 is the SPQ queue,
	// 1..Queues-1 the DRR queues, exactly like the packet engine); Weights
	// are the per-queue scheduler weights used by the hybrid drain.
	Queues  int
	Weights []int64

	// Buffer is the per-port buffer B: the fluid backlog of a link is
	// clamped to it, and the hybrid demote/promote thresholds are
	// fractions of it.
	Buffer units.ByteSize
	MTU    units.ByteSize
	MSS    units.ByteSize
	// RTT is the base round-trip time: the slow-start epoch length and the
	// fixed handshake term of every FCT.
	RTT units.Duration

	// Hybrid enables selective packetization: a link whose fluid backlog
	// crosses B/2 is demoted to packet granularity through the scheme
	// admission NewAdmission builds, and promoted back once its queue
	// drains to B/10 (see hybrid.go).
	Hybrid bool
	// NewAdmission builds the buffer-management scheme for one demoted
	// port. The instance persists across that port's episodes so stateful
	// schemes (DynaQ thresholds) keep their state. Required when Hybrid.
	NewAdmission func() (buffer.Admission, error)

	// Spans, when non-nil, receives sim-time spans: one summary span per
	// run (Finish) and one span per demote episode, parented under
	// SpanParent.
	Spans      *trace.Tracer
	SpanParent string
}

// FlowSpec describes one flow handed to the engine.
type FlowSpec struct {
	ID         packet.FlowID
	Src, Dst   int
	Class      int
	Size       units.ByteSize
	OnComplete func(fct units.Duration)
}

// Stats are the engine's run counters.
type Stats struct {
	Recomputes         int64
	Demotions          int64
	Promotions         int64
	PacketizedPackets  int64
	PacketizedDrops    int64
	PacketizedMarks    int64
	FluidDropBytes     int64
	ThresholdCrossings int64
	Started            int64
	Completed          int64
	MaxActive          int
}

// fflow is one flow's engine state.
type fflow struct {
	spec      FlowSpec
	path      []int32
	remaining units.ByteSize
	started   units.Time
	rate      units.Rate // current max-min allocation
	peak      units.Rate // min link capacity along the path
	short     bool

	// Slow start: the source blasts min(peak, IW<<epoch / RTT) until one
	// RTT after it first observes an allocation below its cap (feedback
	// delay — the overshoot in that window is what builds fluid queues).
	ssDone   bool
	ssExitAt units.Time

	// Loss penalty: a packetized drop (or mark) halves the flow's cap
	// until penaltyUntil and charges one RTT of recovery to the FCT.
	penaltyRate  units.Rate
	penaltyUntil units.Time
	extraDelay   units.Duration

	// epLinks counts demoted links on the path; while > 0 the flow's bytes
	// are delivered by the episode pump of its owner link, not the fluid
	// advance. inflight is the byte total sitting in episode queues.
	epLinks  int32
	epOwner  int32
	inflight units.ByteSize

	activeIdx int32 // index into e.active, -1 once completed
}

// linkState is one directed link's fluid (and episode) state.
type linkState struct {
	cap     units.Rate
	inRate  units.Rate     // source send rate currently offered to the link
	backlog units.ByteSize // fluid queue, clamped to [0, Buffer]

	demoted bool
	ep      *episode // hybrid episode state, allocated on first demotion
}

// Engine is the flow-level engine. It shares the discrete-event core with
// the packet engine — its events are just coarser: rate recomputations,
// completions, threshold crossings and episode pump ticks.
type Engine struct {
	s    *sim.Simulator
	cfg  Config
	topo *Topology

	flows  []fflow
	active []int32
	links  []linkState
	// busy has bit i set for every fluid link i with inRate > cap or
	// backlog > 0, and possibly for others: advance and armCrossing walk
	// only its bits. recompute and promote set bits; advance clears them.
	busy []uint64

	wf     waterfiller
	caps   []units.Rate
	rates  []units.Rate
	paths  [][]int32
	wfCaps []units.Rate

	lastAdvance units.Time
	dirty       bool // topology of active flows changed since last fill
	ssCount     int  // flows still in slow start (caps grow every epoch)
	penalized   int  // active flows holding a loss penalty (its expiry changes caps)

	completion sim.EventRef // pending at the earliest projected finish
	crossing   sim.EventRef // pending at the earliest projected crossing
	stopTick   func()

	arrivals  []*arrival // free list of pending-arrival records
	pathArena []int32    // where flows' paths are carved from; see path

	// What New derives from the config: the slow-start initial window (10
	// MSS); the recompute quantum bounding how stale rate allocations get
	// (RTT/4); the hybrid episode thresholds (B/2 and B/10); and the
	// short-flow cutoff — a flow of at most cutoff bytes finishes inside
	// slow start, which is the flow PIAS keeps in the high-priority queue.
	initWindow        units.ByteSize
	quantum           units.Duration
	demoteB, promoteB units.ByteSize
	cutoff            units.ByteSize

	stats Stats
}

// ConfigError rejects a Config setting a scenario document sets. Param is
// the document key, as fabric.ShapeError's is, so a loader can point at the
// offending field.
type ConfigError struct {
	Param string
	Msg   string
}

// Error implements error.
func (e *ConfigError) Error() string { return "flowsim: " + e.Msg }

// thresholds are the hybrid episode thresholds: a link is promoted back to
// fluid once its queue drains to B/10 and demoted when it crosses B/2.
func (cfg Config) thresholds() (promote, demote units.ByteSize) {
	return cfg.Buffer / 10, cfg.Buffer / 2
}

// Check reports what New would refuse in cfg without building an engine;
// under Hybrid it builds one admission instance. What a document can still
// set wrong once its config is built, the RTT, a buffer too small for the
// episode thresholds and a scheme the pump cannot run, is a *ConfigError.
func (cfg Config) Check() error {
	promote, demote := cfg.thresholds()
	switch {
	case cfg.Topo == nil:
		return fmt.Errorf("flowsim: config needs a topology")
	case cfg.Queues < 2:
		return fmt.Errorf("flowsim: need an SPQ queue plus DRR queues, got %d", cfg.Queues)
	case len(cfg.Weights) != cfg.Queues:
		return fmt.Errorf("flowsim: %d weights for %d queues", len(cfg.Weights), cfg.Queues)
	case cfg.Buffer <= 0 || cfg.MTU <= 0:
		return fmt.Errorf("flowsim: buffer and MTU must be positive")
	case cfg.RTT <= 0:
		return &ConfigError{"rtt_us", fmt.Sprintf("RTT %v must be positive", cfg.RTT)}
	case promote >= demote:
		return &ConfigError{"buffer_bytes", fmt.Sprintf("promote threshold %v must sit below demote threshold %v", promote, demote)}
	case !cfg.Hybrid:
		return nil
	case cfg.NewAdmission == nil:
		return fmt.Errorf("flowsim: hybrid mode needs an admission factory")
	}
	// A factory error or a scheme the episode pump cannot run surfaces here,
	// not mid-run.
	adm, err := cfg.NewAdmission()
	if err == nil {
		err = checkPumpable(adm)
	}
	if err != nil {
		return &ConfigError{"scheme", "hybrid engine: " + err.Error()}
	}
	return nil
}

// New builds an engine on s. The caller schedules arrivals (ScheduleArrival)
// and steps s; the engine keeps itself consistent through its own events.
func New(s *sim.Simulator, cfg Config) (*Engine, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if cfg.MSS <= 0 {
		cfg.MSS = cfg.MTU
	}
	e := &Engine{
		s: s, cfg: cfg, topo: cfg.Topo,
		initWindow: 10 * cfg.MSS,
		quantum:    cfg.RTT / 4,
		cutoff:     pias.DemotionThreshold,
	}
	e.promoteB, e.demoteB = cfg.thresholds()
	e.links = make([]linkState, cfg.Topo.NumLinks())
	e.busy = make([]uint64, (len(e.links)+63)/64)
	for i := range e.links {
		e.links[i].cap = cfg.Topo.Capacity(i)
	}
	if e.quantum <= 0 {
		e.quantum = cfg.RTT
	}
	e.stopTick = s.Every(e.quantum, e.onTick)
	return e, nil
}

// Close releases the engine's recurring events (the quantum ticker and any
// episode pumps); the run loop owns calling it once the flow count is
// reached.
func (e *Engine) Close() {
	e.stopTick()
	e.s.Cancel(e.completion)
	e.s.Cancel(e.crossing)
	for i := range e.links {
		if ep := e.links[i].ep; ep != nil {
			e.s.Cancel(ep.pump)
		}
	}
}

// Stats returns the run counters.
func (e *Engine) Stats() Stats { return e.stats }

// Active returns the number of in-flight flows.
func (e *Engine) Active() int { return len(e.active) }

// Finish emits the run's summary span. Call once after the run loop.
func (e *Engine) Finish() {
	if e.cfg.Spans != nil {
		e.cfg.Spans.SimSpan("flow-engine", e.cfg.SpanParent, 0, e.s.Now(),
			trace.A("engine", "flow"),
			trace.AInt("recomputes", e.stats.Recomputes),
			trace.AInt("demotions", e.stats.Demotions),
			trace.AInt("flows_completed", e.stats.Completed))
	}
}

// ScheduleArrival schedules spec to start at the given simulated time. The
// arrival time feeds the event heap, so wall-clock values must never reach
// it.
func (e *Engine) ScheduleArrival(at units.Time, spec FlowSpec) {
	var a *arrival
	if n := len(e.arrivals); n > 0 {
		a = e.arrivals[n-1]
		e.arrivals = e.arrivals[:n-1]
	} else {
		a = &arrival{e: e}
	}
	a.spec = spec
	e.s.AtCall(at, startArrival, a)
}

// arrival is a flow waiting for its start time. The records come from the
// engine's free list and the event calls a package function on one, so an
// arrival allocates only while the list grows to the most arrivals ever
// pending at once: one, when each arrival is scheduled as it starts.
type arrival struct {
	e    *Engine
	spec FlowSpec
}

// startArrival starts a's flow, after returning a to the free list.
func startArrival(x any) {
	a := x.(*arrival)
	e, spec := a.e, a.spec
	a.spec = FlowSpec{}
	e.arrivals = append(e.arrivals, a)
	e.startFlow(spec)
}

// Flows keep their paths until the run ends, so paths are carved from
// chunks of pathChunk links, pathReserve of which are left free for the next
// path: a path is at most six links on the fabrics, and one that is longer
// than the rest of a chunk gets a slice of its own.
const (
	pathChunk   = 4096
	pathReserve = 16
)

// path returns the links from src to dst under ECMP key key, carved from the
// engine's path arena.
func (e *Engine) path(src, dst int, key uint64) []int32 {
	if cap(e.pathArena)-len(e.pathArena) < pathReserve {
		e.pathArena = make([]int32, 0, pathChunk)
	}
	n := len(e.pathArena)
	p := e.topo.Path(src, dst, key, e.pathArena[n:n])
	if len(p) <= cap(e.pathArena)-n {
		e.pathArena = e.pathArena[:n+len(p)]
	}
	return p[:len(p):len(p)]
}

// startFlow admits one flow into the fluid state. Its rate stays zero until
// the next recomputation event (at most one quantum away).
func (e *Engine) startFlow(spec FlowSpec) {
	if spec.Size <= 0 {
		panic("flowsim: flow size must be positive")
	}
	if spec.Class < 0 || spec.Class >= e.cfg.Queues {
		panic(fmt.Sprintf("flowsim: class %d out of range", spec.Class))
	}
	e.advance()
	idx := int32(len(e.flows))
	// Known packet-vs-fluid path divergence: the key handed to Path below is
	// already hashed and Path hashes it again, while the packet engine
	// hashes the flow id once, so the same flow may take different
	// equal-cost paths on the two engines. Kept because every flow and
	// hybrid artifact depends on it; removing it is ROADMAP item 7's, the
	// check that the non-packet engines reproduce the packet engine's
	// verdicts.
	e.flows = append(e.flows, fflow{
		spec:      spec,
		path:      e.path(spec.Src, spec.Dst, fabric.Hash(uint64(spec.ID))),
		remaining: spec.Size,
		started:   e.s.Now(),
		short:     spec.Size <= e.cutoff,
		epOwner:   -1,
		activeIdx: int32(len(e.active)),
	})
	f := &e.flows[idx]
	f.peak = e.links[f.path[0]].cap
	for _, l := range f.path[1:] {
		if c := e.links[l].cap; c < f.peak {
			f.peak = c
		}
	}
	for _, l := range f.path {
		if ls := &e.links[l]; ls.demoted {
			f.epLinks++
			if f.epOwner < 0 {
				f.epOwner = l
			}
			ls.ep.flows = append(ls.ep.flows, idx)
			ls.ep.credit = append(ls.ep.credit, 0)
		}
	}
	e.active = append(e.active, idx)
	if len(e.active) > e.stats.MaxActive {
		e.stats.MaxActive = len(e.active)
	}
	e.stats.Started++
	e.ssCount++
	e.dirty = true
}

// baseWindowRate returns IW/RTT, the slow-start epoch-zero send rate.
func (e *Engine) baseWindowRate() units.Rate {
	return units.Throughput(e.initWindow, e.cfg.RTT)
}

// sendCap returns the flow's current source-side rate cap: the slow-start
// window over the RTT (doubling each epoch) clamped by the path peak and
// any standing loss penalty. Monotone within an epoch, so allocations only
// need refreshing at recompute events.
func (e *Engine) sendCap(f *fflow, now units.Time) units.Rate {
	c := f.peak
	if !f.ssDone {
		epoch := int64(now.Sub(f.started) / e.cfg.RTT)
		if epoch > 62 {
			epoch = 62
		}
		base := e.baseWindowRate()
		if base < units.BitPerSecond {
			base = units.BitPerSecond
		}
		if base < f.peak>>uint(epoch) {
			c = base << uint(epoch)
		}
	}
	if f.penaltyRate > 0 && now < f.penaltyUntil && f.penaltyRate < c {
		c = f.penaltyRate
	}
	if c < units.BitPerSecond {
		c = units.BitPerSecond
	}
	return c
}

// advance integrates the fluid state from the last advance point to now:
// every allocated flow delivers rate×dt bytes, every busy link's backlog
// grows or drains by (inRate − capacity)×dt. Demoted links are owned by
// their episode pump and skipped here. The links are walked in ascending
// order, which the hybrid needs: a flow's episode owner is the first link
// demoted on its path, and pumps armed at one instant fire in arming order.
func (e *Engine) advance() {
	now := e.s.Now()
	dt := now.Sub(e.lastAdvance)
	if dt <= 0 {
		return
	}
	e.lastAdvance = now
	for _, fi := range e.active {
		f := &e.flows[fi]
		if f.epLinks > 0 || f.rate <= 0 {
			continue
		}
		got := f.rate.BytesIn(dt)
		if got >= f.remaining {
			f.remaining = 0
		} else {
			f.remaining -= got
		}
	}
	for w, word := range e.busy {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			l := &e.links[i]
			if !l.demoted {
				switch {
				case l.inRate > l.cap:
					prev := l.backlog
					l.backlog += (l.inRate - l.cap).BytesIn(dt)
					if l.backlog > e.cfg.Buffer {
						e.stats.FluidDropBytes += int64(l.backlog - e.cfg.Buffer)
						l.backlog = e.cfg.Buffer
						e.fluidOverflow(i)
					}
					if prev < e.demoteB && l.backlog >= e.demoteB {
						e.stats.ThresholdCrossings++
						if e.cfg.Hybrid {
							e.demote(i)
						}
					}
				case l.backlog > 0:
					drained := (l.cap - l.inRate).BytesIn(dt)
					if drained >= l.backlog {
						l.backlog = 0
					} else {
						l.backlog -= drained
					}
				}
			}
			if l.demoted || (l.inRate <= l.cap && l.backlog == 0) {
				e.busy[w] &^= word & -word
			}
		}
	}
}

// markBusy puts link i in the set advance walks.
func (e *Engine) markBusy(i int32) { e.busy[i>>6] |= 1 << uint(i&63) }

// fluidOverflow models a full fluid buffer: every slow-start flow crossing
// the link took losses, so it exits slow start and halves, exactly the
// feedback that stops the overshoot in a real network.
func (e *Engine) fluidOverflow(link int) {
	now := e.s.Now()
	li := int32(link)
	for _, fi := range e.active {
		f := &e.flows[fi]
		if f.ssDone {
			continue
		}
		for _, l := range f.path {
			if l == li {
				e.exitSlowStart(f, now)
				e.halve(f, now)
				break
			}
		}
	}
}

// exitSlowStart retires a flow from slow start (short flows complete within
// it by construction, but a loss still caps them).
func (e *Engine) exitSlowStart(f *fflow, now units.Time) {
	if !f.ssDone {
		f.ssDone = true
		e.ssCount--
	}
}

// halve applies a loss penalty: cap the flow at half its current send cap
// for one RTT of recovery and charge the RTT to its FCT. At most one
// penalty per RTT, like a real fast-recovery round.
func (e *Engine) halve(f *fflow, now units.Time) {
	if f.penaltyRate > 0 && now < f.penaltyUntil {
		return
	}
	half := e.sendCap(f, now) / 2
	if half < units.BitPerSecond {
		half = units.BitPerSecond
	}
	if f.penaltyRate == 0 {
		e.penalized++
	}
	f.penaltyRate = half
	f.penaltyUntil = now.Add(e.cfg.RTT)
	f.extraDelay += e.cfg.RTT
}

// onTick is the quantum event: integrate, re-solve the water-filling if
// anything could have moved, and re-arm the derived timers.
func (e *Engine) onTick() {
	e.advance()
	if e.dirty || e.ssCount > 0 || e.penalized > 0 {
		e.recompute()
	}
	e.armCompletion()
	e.armCrossing()
}

// recompute re-solves the max-min allocation over the active flows and
// refreshes every link's offered rate.
func (e *Engine) recompute() {
	now := e.s.Now()
	n := len(e.active)
	e.stats.Recomputes++
	e.dirty = false
	if cap(e.caps) < n {
		// Doubling: an active set climbing to n regrows the scratch
		// O(log n) times, not once per new high.
		m := max(n, 2*cap(e.caps))
		e.caps = make([]units.Rate, m)
		e.rates = make([]units.Rate, m)
		e.paths = make([][]int32, m)
	}
	caps, rates, paths := e.caps[:n], e.rates[:n], e.paths[:n]
	for k, fi := range e.active {
		f := &e.flows[fi]
		if f.penaltyRate > 0 && now >= f.penaltyUntil {
			f.penaltyRate = 0
			e.penalized--
		}
		caps[k] = e.sendCap(f, now)
		paths[k] = f.path
	}
	e.wf.fill(e.linkCaps(), caps, paths, rates)
	for i := range e.links {
		e.links[i].inRate = 0
	}
	for k, fi := range e.active {
		f := &e.flows[fi]
		f.rate = rates[k]
		// Feedback delay: a flow keeps blasting its window for one RTT
		// after first seeing an allocation below its cap, then settles.
		// Long flows then track their share; short flows never settle —
		// they live and die inside slow start.
		offered := f.rate
		if !f.ssDone {
			if f.rate < caps[k] {
				if f.ssExitAt == 0 {
					f.ssExitAt = now.Add(e.cfg.RTT)
				} else if now >= f.ssExitAt && !f.short {
					e.exitSlowStart(f, now)
				}
				offered = caps[k]
			} else {
				f.ssExitAt = 0
			}
		}
		for _, l := range f.path {
			ls := &e.links[l]
			if ls.inRate += offered; ls.inRate > ls.cap {
				e.markBusy(l)
			}
		}
	}
}

// linkCaps returns the per-link capacities as a dense slice for the filler.
// Demoted links keep their capacity in the fill: the allocation of a
// packetized flow is its offered rate into the episode pump, which then
// applies the real scheme's admission and drain.
func (e *Engine) linkCaps() []units.Rate {
	if cap(e.wfCaps) < len(e.links) {
		e.wfCaps = make([]units.Rate, len(e.links))
	}
	out := e.wfCaps[:len(e.links)]
	for i := range e.links {
		out[i] = e.links[i].cap
	}
	return out
}

// armCompletion points the completion timer at the earliest projected flow
// finish under current rates. Packetized flows complete through their
// episode pump instead.
func (e *Engine) armCompletion() {
	best := units.MaxTime
	now := e.s.Now()
	horizon := units.MaxTime.Sub(now)
	for _, fi := range e.active {
		f := &e.flows[fi]
		if f.epLinks > 0 || f.rate <= 0 {
			continue
		}
		d := f.rate.Transmit(f.remaining)
		if d >= horizon {
			// Past the representable horizon (e.g. a starved 1 bps share on
			// a huge flow): leave it to the next rate recomputation instead
			// of wrapping Time and arming the timer in the past.
			continue
		}
		if t := now.Add(d + units.Picosecond); t < best {
			best = t
		}
	}
	if best == units.MaxTime {
		e.s.Cancel(e.completion)
		return
	}
	e.s.Rearm(&e.completion, best.Sub(now), completionDue, e)
}

// completionDue fires at a projected finish: integrate and complete every
// flow that has drained.
func completionDue(arg any) {
	e := arg.(*Engine)
	e.completion = sim.EventRef{}
	e.advance()
	e.completeDrained()
	e.armCompletion()
}

// completeDrained completes every active fluid flow with no bytes left,
// in flow order for determinism.
func (e *Engine) completeDrained() {
	for i := 0; i < len(e.active); {
		fi := e.active[i]
		f := &e.flows[fi]
		if f.epLinks == 0 && f.remaining <= 0 {
			e.complete(fi, true)
			continue // swap-removed: revisit index i
		}
		i++
	}
}

// complete retires flow fi and reports its FCT: the rate-limited transfer
// time plus the base RTT, the worst standing queue on its path, and any
// accumulated loss-recovery delay. Pump completions pass withQDelay false —
// a packetized flow waited out its queue explicitly, so adding the standing
// backlog again would double-count it.
func (e *Engine) complete(fi int32, withQDelay bool) {
	f := &e.flows[fi]
	now := e.s.Now()
	var qDelay units.Duration
	if withQDelay {
		for _, l := range f.path {
			ls := &e.links[l]
			b := ls.backlog
			if ls.demoted {
				b = ls.ep.total
			}
			if b > 0 {
				if d := ls.cap.Transmit(b); d > qDelay {
					qDelay = d
				}
			}
		}
	}
	fct := now.Sub(f.started) + e.cfg.RTT + qDelay + f.extraDelay
	// Swap-remove from the active set, patching the moved flow's index.
	last := len(e.active) - 1
	ai := f.activeIdx
	moved := e.active[last]
	e.active[ai] = moved
	e.flows[moved].activeIdx = ai
	e.active = e.active[:last]
	f.activeIdx = -1
	if !f.ssDone {
		e.ssCount--
		f.ssDone = true
	}
	if f.penaltyRate > 0 {
		e.penalized--
	}
	e.stats.Completed++
	e.dirty = true
	if f.spec.OnComplete != nil {
		f.spec.OnComplete(fct)
	}
}

// armCrossing points the crossing timer at the earliest projected demote
// threshold crossing among growing fluid backlogs, so demotion lands at the
// crossing instant rather than the next quantum tick.
func (e *Engine) armCrossing() {
	best := e.nextCrossing()
	if best == units.MaxTime {
		e.s.Cancel(e.crossing)
		return
	}
	e.s.Rearm(&e.crossing, best.Sub(e.s.Now()), crossingDue, e)
}

// nextCrossing returns the earliest projected demote threshold crossing
// among the busy links, or MaxTime if none projects inside the horizon.
// Only an overloaded link can cross, and every one is busy.
func (e *Engine) nextCrossing() units.Time {
	best := units.MaxTime
	now := e.s.Now()
	horizon := units.MaxTime.Sub(now)
	for w, word := range e.busy {
		for ; word != 0; word &= word - 1 {
			l := &e.links[w<<6|bits.TrailingZeros64(word)]
			if l.demoted || l.inRate <= l.cap || l.backlog >= e.demoteB {
				continue
			}
			d := (l.inRate - l.cap).Transmit(e.demoteB - l.backlog)
			if d >= horizon {
				continue // crossing projects past the horizon; wait for a tick
			}
			if t := now.Add(d + units.Picosecond); t < best {
				best = t
			}
		}
	}
	return best
}

// crossingDue fires at a projected threshold crossing: the advance detects
// the crossing (and demotes under hybrid) as a side effect.
func crossingDue(arg any) {
	e := arg.(*Engine)
	e.crossing = sim.EventRef{}
	e.advance()
	e.armCrossing()
}
