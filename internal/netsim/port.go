// Package netsim provides the network elements of the simulator: output
// ports with multi-queue buffers, links, switches, and hosts. It glues the
// scheduling (internal/sched) and buffer-management (internal/buffer) layers
// to the discrete-event engine.
package netsim

import (
	"fmt"
	"math/bits"

	"dynaq/internal/buffer"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// Node is anything that can receive a packet from a link.
type Node interface {
	// Receive accepts a packet delivered by a link.
	Receive(p *packet.Packet)
}

// SendOutcome classifies what a link did with a packet put on the wire.
type SendOutcome uint8

// Send outcomes.
const (
	// SendDelivered: the packet will arrive after the propagation delay.
	SendDelivered SendOutcome = iota
	// SendLost: the packet was blackholed (link down, or random loss).
	SendLost
	// SendCorrupted: the frame was bit-corrupted in flight; the receiver's
	// CRC discards it, so from the transport's view it is lost.
	SendCorrupted
)

// Link is a unidirectional point-to-point wire: fixed propagation delay to a
// destination node. Serialization happens upstream, in the Port that feeds
// the link, so the link itself never queues. Links support fault
// injection: while down, every packet put on the wire is lost; lossy or
// corrupting links (failing optics) discard a seeded-random fraction.
// Packets already on the wire when a fault begins still arrive.
type Link struct {
	sim    *sim.Simulator
	lane   *sim.Lane // the simulator's lane for this link's propagation delay
	dst    Node
	down   bool
	downAt units.Time
	lost   int64

	lossRate    float64
	corruptRate float64
	corrupted   int64
	// rnd draws uniform [0,1) variates for loss/corruption decisions; it is
	// injected (seeded) by the fault engine so runs stay deterministic.
	rnd func() float64

	// wire is the FIFO of packets in flight, oldest first. The delay is
	// fixed, so packets arrive in the order they were sent: each Send
	// appends one packet here and one arrival to the lane, and each arrival
	// pops one.
	wire packet.FIFO
}

// arriveFn is the shared callback for every link's arrivals.
func arriveFn(a any) { a.(*Link).arrive() }

// arrive delivers the head of the wire.
func (l *Link) arrive() {
	p := l.wire.Pop()
	if l.dst == nil {
		panic("netsim: link used before wiring completed")
	}
	l.dst.Receive(p)
}

// NewLink wires a link with the given propagation delay toward dst. The
// destination may be nil at construction (switches reference each other, so
// wiring is two-phase); install it with SetDst before a packet arrives.
func NewLink(s *sim.Simulator, delay units.Duration, dst Node) *Link {
	if delay < 0 {
		panic("netsim: negative link delay")
	}
	return &Link{sim: s, lane: s.Lane(delay), dst: dst}
}

// SetDst installs the destination node (second phase of topology wiring).
func (l *Link) SetDst(dst Node) { l.dst = dst }

// Send propagates p toward the destination node and reports what the wire
// did with it; packets entering a downed link vanish (fiber-cut semantics),
// lossy links blackhole a random fraction, corrupting links deliver frames
// the receiver's CRC rejects. A delivered packet belongs to the link until
// it hands it to the destination; a lost or corrupted one stays the caller's
// to release.
func (l *Link) Send(p *packet.Packet) SendOutcome {
	if l.down {
		l.lost++
		return SendLost
	}
	if l.lossRate > 0 && l.rnd() < l.lossRate {
		l.lost++
		return SendLost
	}
	if l.corruptRate > 0 && l.rnd() < l.corruptRate {
		l.corrupted++
		return SendCorrupted
	}
	l.wire.Push(p)
	l.lane.Call(arriveFn, l)
	return SendDelivered
}

// SetDown injects or clears a link failure, recording the failure instant
// so failure-aware routing can model a detection delay.
func (l *Link) SetDown(down bool) {
	if down && !l.down {
		l.downAt = l.sim.Now()
	}
	l.down = down
}

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// DownSince returns when the current outage began (meaningful only while
// Down() is true).
func (l *Link) DownSince() units.Time { return l.downAt }

// Usable reports whether a route may still use this link: a healthy link
// always is, and a failed one remains (wrongly) usable until the outage has
// lasted the given detection delay — the window in which a real fabric's
// probes have not yet converged.
func (l *Link) Usable(detect units.Duration) bool {
	return !l.down || l.sim.Now().Sub(l.downAt) < detect
}

// SetRand installs the uniform [0,1) variate source the loss and corruption
// decisions draw from. The fault engine seeds one per impaired link so the
// fault timeline is a deterministic function of the scenario seed.
func (l *Link) SetRand(rnd func() float64) { l.rnd = rnd }

// SetLossRate sets the random packet-loss probability in [0,1). A positive
// rate requires a variate source (SetRand).
func (l *Link) SetLossRate(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netsim: loss rate %v outside [0,1)", p))
	}
	if p > 0 && l.rnd == nil {
		panic("netsim: loss rate set without a rand source")
	}
	l.lossRate = p
}

// SetCorruptRate sets the bit-corruption probability in [0,1). A positive
// rate requires a variate source (SetRand).
func (l *Link) SetCorruptRate(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netsim: corrupt rate %v outside [0,1)", p))
	}
	if p > 0 && l.rnd == nil {
		panic("netsim: corrupt rate set without a rand source")
	}
	l.corruptRate = p
}

// LossRate returns the current random-loss probability.
func (l *Link) LossRate() float64 { return l.lossRate }

// CorruptRate returns the current bit-corruption probability.
func (l *Link) CorruptRate() float64 { return l.corruptRate }

// Lost counts packets blackholed by the link (down-state plus random loss).
func (l *Link) Lost() int64 { return l.lost }

// Corrupted counts frames delivered corrupted and hence discarded.
func (l *Link) Corrupted() int64 { return l.corrupted }

// PortStats aggregates per-port counters.
type PortStats struct {
	Enqueued      int64 // packets admitted to the buffer
	Dropped       int64 // packets rejected at enqueue (admission + pool)
	PoolDrops     int64 // subset of Dropped: shared switch memory exhausted
	DequeueDrops  int64 // packets discarded at dequeue (TCN-drop ablation)
	Evicted       int64 // buffered packets pushed out (BarberQ)
	Marked        int64 // packets CE-marked
	Misclassified int64 // packets with an out-of-range class, collapsed to the last queue
	TxPackets     int64 // packets put on the wire
	TxBytes       units.ByteSize
	LinkLost      int64 // packets the attached link blackholed (down or lossy)
	LinkCorrupted int64 // frames the attached link corrupted (CRC-discarded)
}

// PortObserver receives queue-state samples. The static run's queue trace
// implements it; the hook fires on every enqueue and dequeue, matching the
// paper's measurement ("every enqueueing and dequeueing operations").
type PortObserver interface {
	// ObservePort is called after the port state changed.
	ObservePort(now units.Time, p *Port)
}

// PortEventKind classifies per-packet port events for tracing.
type PortEventKind uint8

// Port event kinds.
const (
	// EvEnqueue: a packet was admitted and buffered.
	EvEnqueue PortEventKind = iota
	// EvDrop: a packet was rejected at admission.
	EvDrop
	// EvMark: a packet was CE-marked.
	EvMark
	// EvEvict: a buffered packet was pushed out (BarberQ).
	EvEvict
	// EvDequeueDrop: a packet was discarded at dequeue (TCN-drop).
	EvDequeueDrop
	// EvTransmit: a packet finished serialization onto the wire.
	EvTransmit
	// EvMisclass: a packet arrived with an out-of-range class and was
	// collapsed to the last queue.
	EvMisclass
	// EvLinkDrop: the attached link blackholed the packet (down or lossy).
	EvLinkDrop
	// EvLinkCorrupt: the attached link corrupted the frame in flight.
	EvLinkCorrupt
)

// String implements fmt.Stringer.
func (k PortEventKind) String() string {
	switch k {
	case EvEnqueue:
		return "enqueue"
	case EvDrop:
		return "drop"
	case EvMark:
		return "mark"
	case EvEvict:
		return "evict"
	case EvDequeueDrop:
		return "dequeue-drop"
	case EvTransmit:
		return "transmit"
	case EvMisclass:
		return "misclass"
	case EvLinkDrop:
		return "link-drop"
	case EvLinkCorrupt:
		return "link-corrupt"
	default:
		return fmt.Sprintf("PortEventKind(%d)", uint8(k))
	}
}

// PortEvent is one per-packet occurrence at a port. Pkt is valid only during
// the hook call that delivers the event: the packet moves on, and a dropped
// one is recycled as soon as the port's hooks and observers have seen the
// drop. A hook that keeps events keeps Pkt.Detached() copies
// (metrics.EventRecorder does).
type PortEvent struct {
	At    units.Time
	Kind  PortEventKind
	Queue int
	Pkt   *packet.Packet
}

// EventHook receives per-packet port events (see metrics.EventRecorder for a
// ready-made recorder) and must not retain ev.Pkt past its return. A nil
// hook costs nothing on the fast path.
type EventHook func(ev PortEvent)

// Port is a switch output port: a set of service queues in front of one
// link, governed by a scheduler and a buffer-management scheme. It also
// serves as a host NIC when configured with a single queue and a deep
// buffer.
type Port struct {
	sim   *sim.Simulator
	rate  units.Rate
	bufSz units.ByteSize
	link  *Link

	queues    []pktQueue
	backlog   uint64 // bit i set while queues[i] holds a packet
	total     units.ByteSize
	sched     sched.Scheduler
	admit     buffer.Admission
	busy      bool
	observers []PortObserver

	// Scheme hooks resolved once at construction to avoid per-packet
	// type assertions.
	enqMark buffer.EnqueueMarker
	deqMark buffer.DequeueMarker
	deqDrop buffer.DequeueDropper
	deqObs  buffer.DequeueObserver
	evictor buffer.Evictor

	// pool, when non-nil, is the shared switch memory the admission scheme
	// draws from (§II-C); every admitted byte must also fit in it.
	pool *buffer.SharedPool

	stats PortStats
	hook  EventHook

	// Serialization state. The busy flag guarantees at most one packet is
	// serializing per port, so the in-flight packet lives in fields instead
	// of a closure, and its completion is a package-level callback with the
	// port as argument. With the link's wire FIFO and a scheduler that does
	// not allocate, a packet crosses Enqueue → txDone → delivery without a
	// heap allocation.
	txPkt   *packet.Packet
	txQueue int
	// Nearly every packet a port serializes is an ACK or the largest size it
	// has served, so their completions wait in the simulator's lanes for those
	// two delays (sim.Lane) and not on the event heap. The largest size starts
	// at an ACK's.
	ackLane *sim.Lane
	maxLane *sim.Lane
	maxSize units.ByteSize
}

// pktQueue is a service queue: a FIFO of packets with its byte count and
// the queue's own counters.
type pktQueue struct {
	packet.FIFO
	bytes units.ByteSize
	drops int64          // packets refused at enqueue
	tx    units.ByteSize // bytes put on the wire
}

func (q *pktQueue) push(p *packet.Packet) {
	q.Push(p)
	q.bytes += p.Size
}

func (q *pktQueue) pop() *packet.Packet {
	p := q.Pop()
	q.bytes -= p.Size
	return p
}

// popTail removes the newest packet (eviction victims leave from the
// tail, keeping in-flight ordering of the survivors intact).
func (q *pktQueue) popTail() *packet.Packet {
	p := q.PopTail()
	q.bytes -= p.Size
	return p
}

// PortConfig assembles a Port.
type PortConfig struct {
	// Rate is the link speed the port serializes at.
	Rate units.Rate
	// Buffer is the port buffer size B shared by the queues.
	Buffer units.ByteSize
	// Queues is the number of service queues.
	Queues int
	// Scheduler picks the next queue to serve.
	Scheduler sched.Scheduler
	// Admission is the buffer-management scheme.
	Admission buffer.Admission
	// Link is the attached wire.
	Link *Link
}

// NewPort validates the configuration and builds the port.
func NewPort(s *sim.Simulator, cfg PortConfig) (*Port, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("netsim: port rate %v must be positive", cfg.Rate)
	}
	if cfg.Buffer <= 0 {
		return nil, fmt.Errorf("netsim: port buffer %v must be positive", cfg.Buffer)
	}
	if cfg.Queues <= 0 {
		return nil, fmt.Errorf("netsim: port needs at least one queue")
	}
	if cfg.Queues > sched.MaxQueues {
		return nil, fmt.Errorf("netsim: port has %d queues, more than the %d a scheduler's backlog word holds",
			cfg.Queues, sched.MaxQueues)
	}
	if cfg.Scheduler == nil || cfg.Admission == nil || cfg.Link == nil {
		return nil, fmt.Errorf("netsim: port needs a scheduler, an admission scheme, and a link")
	}
	ackLane := s.Lane(cfg.Rate.Transmit(packet.AckSize))
	p := &Port{
		sim:     s,
		rate:    cfg.Rate,
		bufSz:   cfg.Buffer,
		link:    cfg.Link,
		queues:  make([]pktQueue, cfg.Queues),
		sched:   cfg.Scheduler,
		admit:   cfg.Admission,
		ackLane: ackLane,
		maxLane: ackLane,
		maxSize: packet.AckSize,
	}
	p.enqMark, _ = cfg.Admission.(buffer.EnqueueMarker)
	p.deqMark, _ = cfg.Admission.(buffer.DequeueMarker)
	p.deqDrop, _ = cfg.Admission.(buffer.DequeueDropper)
	p.deqObs, _ = cfg.Admission.(buffer.DequeueObserver)
	p.evictor, _ = cfg.Admission.(buffer.Evictor)
	if m, ok := cfg.Admission.(interface{ Pool() *buffer.SharedPool }); ok {
		p.pool = m.Pool()
	}
	return p, nil
}

// NumQueues implements sched.View and buffer.View.
func (p *Port) NumQueues() int { return len(p.queues) }

// QueueLen implements sched.View and buffer.View.
func (p *Port) QueueLen(i int) units.ByteSize { return p.queues[i].bytes }

// HeadSize implements sched.View.
func (p *Port) HeadSize(i int) units.ByteSize {
	if h := p.queues[i].Head(); h != nil {
		return h.Size
	}
	return 0
}

// TotalLen implements buffer.View.
func (p *Port) TotalLen() units.ByteSize { return p.total }

// Buffer implements buffer.View.
func (p *Port) Buffer() units.ByteSize { return p.bufSz }

// Rate returns the port's link speed.
func (p *Port) Rate() units.Rate { return p.rate }

// Link returns the attached wire (for failure injection in tests and
// experiments).
func (p *Port) Link() *Link { return p.link }

// Stats returns a snapshot of the port counters, folding in the attached
// link's loss/corruption counters so fault runs can be audited end to end.
func (p *Port) Stats() PortStats {
	s := p.stats
	s.LinkLost = p.link.Lost()
	s.LinkCorrupted = p.link.Corrupted()
	return s
}

// Admission returns the buffer-management scheme governing this port (for
// invariant checkers and traces).
func (p *Port) Admission() buffer.Admission { return p.admit }

// Pool returns the shared switch memory the port draws from, or nil for a
// private-buffer port.
func (p *Port) Pool() *buffer.SharedPool { return p.pool }

// QueueDrops returns the enqueue-drop count of queue i.
func (p *Port) QueueDrops(i int) int64 { return p.queues[i].drops }

// QueueTxBytes returns the bytes queue i has put on the wire.
func (p *Port) QueueTxBytes(i int) units.ByteSize { return p.queues[i].tx }

// Observe registers an observer notified on every enqueue and dequeue.
func (p *Port) Observe(o PortObserver) { p.observers = append(p.observers, o) }

// AddEventHook chains h after any previously installed hook, so a trace
// recorder and an invariant guardrail can observe the same port.
func (p *Port) AddEventHook(h EventHook) {
	if prev := p.hook; prev != nil {
		p.hook = func(ev PortEvent) { prev(ev); h(ev) }
		return
	}
	p.hook = h
}

func (p *Port) emit(kind PortEventKind, queue int, pkt *packet.Packet) {
	if p.hook != nil {
		p.hook(PortEvent{At: p.sim.Now(), Kind: kind, Queue: queue, Pkt: pkt})
	}
}

func (p *Port) notify() {
	for _, o := range p.observers {
		o.ObservePort(p.sim.Now(), p)
	}
}

// Enqueue runs the buffer-management scheme for an arriving packet and, if
// admitted, buffers it and kicks the transmitter.
//
// A packet admitted at an idle port that nothing watches is served at once:
// an idle port has every queue empty, so the scheduler would pick the
// packet's queue and the packet would leave it at once with sojourn 0. It
// skips the push, the pop and the scheduler's walk, and meets every other
// step of the queued path in the same order. A watched port (an event hook
// or an observer) queues it, so the hooks see the enqueue and the state
// between the two halves.
func (p *Port) Enqueue(pkt *packet.Packet) {
	cls := pkt.Class
	if cls < 0 || cls >= len(p.queues) {
		// Single-queue host NICs and misconfigured classes collapse to
		// the last queue (lowest priority) rather than dropping. On a
		// multi-queue port that collapse means a misconfiguration upstream
		// (a flow classified for a queue the port does not have), so it is
		// counted and surfaced instead of silently folding into the last
		// queue's statistics.
		cls = len(p.queues) - 1
		if len(p.queues) > 1 {
			p.stats.Misclassified++
			p.emit(EvMisclass, cls, pkt)
		}
	}
	if !p.admit.Admit(p, cls, pkt.Size) && !p.evictToAdmit(cls, pkt.Size) {
		p.drop(cls, pkt)
		return
	}
	if p.pool != nil && !p.pool.Reserve(pkt.Size) {
		// The shared memory itself is exhausted (another port holds it).
		p.stats.PoolDrops++
		p.drop(cls, pkt)
		return
	}
	if p.enqMark != nil && p.enqMark.MarkOnEnqueue(p, cls, pkt.Size) {
		if pkt.Mark() {
			p.stats.Marked++
			p.emit(EvMark, cls, pkt)
		}
	}
	pkt.EnqueueTime = p.sim.Now()
	p.stats.Enqueued++
	if !p.busy && p.hook == nil && len(p.observers) == 0 {
		p.busy = true
		if p.pool != nil {
			p.pool.Release(pkt.Size)
		}
		p.sched.ServeLone(cls, pkt.Size, true)
		p.dispatch(cls, pkt, 0)
		return
	}
	p.queues[cls].push(pkt)
	p.backlog |= 1 << cls
	p.total += pkt.Size
	p.emit(EvEnqueue, cls, pkt)
	p.notify()
	if !p.busy {
		p.busy = true
		p.transmitNext()
	}
}

// drop rejects an arriving packet at enqueue. The port is the packet's last
// owner, so it releases it once hooks and observers have seen the drop; the
// other discard sites (eviction, dequeue drop, a link that lost or corrupted
// the frame) end the same way.
func (p *Port) drop(cls int, pkt *packet.Packet) {
	p.stats.Dropped++
	p.queues[cls].drops++
	p.emit(EvDrop, cls, pkt)
	p.notify()
	pkt.Release()
}

// evictToAdmit runs after the admission scheme refused an arrival: when the
// scheme supports eviction (BarberQ), it pushes out tail packets of the
// designated victim queues and asks again, until the arrival fits or the
// scheme gives up.
func (p *Port) evictToAdmit(cls int, size units.ByteSize) bool {
	for {
		if p.evictor == nil {
			return false
		}
		victim := p.evictor.EvictFor(p, cls, size)
		if victim < 0 || p.queues[victim].Len() == 0 {
			return false
		}
		evicted := p.queues[victim].popTail()
		if p.queues[victim].Len() == 0 {
			p.backlog &^= 1 << victim
		}
		p.total -= evicted.Size
		if p.pool != nil {
			p.pool.Release(evicted.Size)
		}
		p.stats.Evicted++
		p.emit(EvEvict, victim, evicted)
		evicted.Release()
		if p.admit.Admit(p, cls, size) {
			return true
		}
	}
}

// transmitNext serves one packet according to the scheduler and re-arms
// itself after the serialization delay. A port with nothing buffered goes
// idle without asking: by the sched.Scheduler contract a poll with an empty
// backlog word changes nothing. With one queue backlogged there is nothing
// to pick, and the scheduler is told which queue it serves.
func (p *Port) transmitNext() {
	if p.backlog == 0 {
		p.busy = false
		return
	}
	lone := p.backlog&(p.backlog-1) == 0
	i := bits.TrailingZeros64(p.backlog)
	if !lone {
		i = p.sched.Pick(p.backlog, p)
	}
	pkt := p.queues[i].pop()
	nowEmpty := p.queues[i].Len() == 0
	if nowEmpty {
		p.backlog &^= 1 << i
	}
	p.total -= pkt.Size
	if p.pool != nil {
		p.pool.Release(pkt.Size)
	}
	if lone {
		p.sched.ServeLone(i, pkt.Size, nowEmpty)
	} else {
		p.sched.OnDequeue(i, pkt.Size, nowEmpty)
	}
	p.dispatch(i, pkt, p.sim.Now().Sub(pkt.EnqueueTime))
}

// dispatch runs the dequeue half of the scheme on pkt, just taken from queue
// i after sojourn in it, and starts its serialization unless the scheme drops
// it.
func (p *Port) dispatch(i int, pkt *packet.Packet, sojourn units.Duration) {
	if p.deqObs != nil {
		p.deqObs.ObserveDequeue(p, i, pkt.Size, p.sim.Now())
	}
	if p.deqDrop != nil && p.deqDrop.DropOnDequeue(i, sojourn) {
		// TCN-drop ablation: the transmission opportunity is wasted — the
		// qdisc returned nothing to the NIC — so the link idles for the
		// packet's serialization time (§II-C's argument).
		p.stats.DequeueDrops++
		p.emit(EvDequeueDrop, i, pkt)
		p.notify()
		p.sim.AfterCall(p.rate.Transmit(pkt.Size), idleComplete, p)
		pkt.Release()
		return
	}
	if p.deqMark != nil && p.deqMark.MarkOnDequeue(i, sojourn) {
		if pkt.Mark() {
			p.stats.Marked++
			p.emit(EvMark, i, pkt)
		}
	}
	p.notify()
	p.txPkt, p.txQueue = pkt, i
	p.serialize(pkt.Size)
}

// serialize schedules txDone for when size bytes have left at the port's
// rate. An ACK, or a packet of the largest size served so far, waits in that
// size's lane; a packet larger than any before makes its own size the
// largest. Any other size waits on the heap. A lane event runs at the same
// (when, seq) as the heap event would, so which one holds it changes no
// event's order.
func (p *Port) serialize(size units.ByteSize) {
	switch {
	case size == packet.AckSize:
		p.ackLane.Call(txComplete, p)
	case size == p.maxSize:
		p.maxLane.Call(txComplete, p)
	case size > p.maxSize:
		p.maxSize, p.maxLane = size, p.sim.Lane(p.rate.Transmit(size))
		p.maxLane.Call(txComplete, p)
	default:
		p.sim.AfterCall(p.rate.Transmit(size), txComplete, p)
	}
}

// txComplete and idleComplete end a port's serialization slot: one that
// carried a packet, or one a dequeue drop left idle.
func txComplete(a any)   { a.(*Port).txDone() }
func idleComplete(a any) { a.(*Port).transmitNext() }

// txDone completes serialization of the packet parked in txPkt: account it,
// put it on the wire, and serve the next packet.
func (p *Port) txDone() {
	pkt, i := p.txPkt, p.txQueue
	p.txPkt = nil
	p.stats.TxPackets++
	p.stats.TxBytes += pkt.Size
	p.queues[i].tx += pkt.Size
	p.emit(EvTransmit, i, pkt)
	switch p.link.Send(pkt) {
	case SendLost:
		p.emit(EvLinkDrop, i, pkt)
		pkt.Release()
	case SendCorrupted:
		p.emit(EvLinkCorrupt, i, pkt)
		pkt.Release()
	}
	p.transmitNext()
}
