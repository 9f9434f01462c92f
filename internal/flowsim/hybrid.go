package flowsim

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry/trace"
	"dynaq/internal/units"
)

// pumpBatchMTUs sets the episode pump granularity: one pump tick spans the
// serialization time of this many MTUs at the link rate, so packetized
// admission runs at near-packet resolution without one event per packet
// (48µs per tick on the 1GbE testbed, 4.8µs at 10G).
const pumpBatchMTUs = 4

// chunk is one synthetic packet sitting in a demoted port's queue. A flow
// of -1 marks phantom backlog converted from the fluid queue at demotion:
// it occupies buffer and delays, but delivers to nobody.
type chunk struct {
	flow  int32
	bytes int32
	at    units.Time // admission time, for sojourn-based schemes
}

// chunkQueue is a FIFO of chunks: a slice with a head index and amortized
// compaction, so a steady episode reuses one backing array instead of
// reallocating as the head slides.
type chunkQueue struct {
	chunks []chunk
	head   int
}

func (q *chunkQueue) len() int { return len(q.chunks) - q.head }

func (q *chunkQueue) pop() {
	q.head++
	if q.head > 64 && q.head*2 >= len(q.chunks) {
		q.chunks = q.chunks[:copy(q.chunks, q.chunks[q.head:])]
		q.head = 0
	}
}

// episode is the packetized state of one demoted link, and the buffer.View
// its admission scheme reads. The admission instance persists across the
// link's episodes so stateful schemes (DynaQ's dynamic thresholds) carry
// their state, exactly like a real port would.
type episode struct {
	adm buffer.Admission
	// Optional scheme hooks, resolved once when adm is built.
	enqMark buffer.EnqueueMarker
	deqDrop buffer.DequeueDropper
	deqObs  buffer.DequeueObserver
	deqMark buffer.DequeueMarker

	buf     units.ByteSize // the port buffer B
	queues  []chunkQueue
	qlen    []units.ByteSize
	deficit []int64
	total   units.ByteSize
	carry   int64 // drain budget left over from the last tick

	flows  []int32 // active flows crossing the link this episode
	credit []int64 // per flows[i]: accrued bytes not yet packetized

	eng      *Engine
	li       int          // the link this episode packetizes
	pump     sim.EventRef // the next pump tick, pending while demoted
	lastPump units.Time
	startT   units.Time
	packets  int64
	drops    int64
	marks    int64
}

func (ep *episode) NumQueues() int                { return len(ep.qlen) }
func (ep *episode) QueueLen(i int) units.ByteSize { return ep.qlen[i] }
func (ep *episode) TotalLen() units.ByteSize      { return ep.total }
func (ep *episode) Buffer() units.ByteSize        { return ep.buf }

// checkPumpable reports whether the episode pump can run adm. The pump runs
// admission and the four hooks demote resolves (EnqueueMarker,
// DequeueDropper, DequeueObserver, DequeueMarker), one link at a time. It
// never evicts, and the fluid model has no switch whose memory ports share,
// so it refuses a buffer.Evictor and a scheme with a Pool.
func checkPumpable(adm buffer.Admission) error {
	switch adm.(type) {
	case buffer.Evictor:
		return fmt.Errorf("%s evicts, and the hybrid episode pump does not", adm.Name())
	case interface{ Pool() *buffer.SharedPool }:
		return fmt.Errorf("%s draws from switch memory, and the hybrid episode pump has none", adm.Name())
	}
	return nil
}

// demote switches link li to packet granularity: the fluid backlog becomes
// synthetic packets fed through the real scheme's admission, and an episode
// pump takes over arrival and drain at MTU-batch resolution.
func (e *Engine) demote(li int) {
	l := &e.links[li]
	if l.ep == nil {
		adm, err := e.cfg.NewAdmission()
		if err != nil {
			// New() pre-validates the factory; a failure here means the
			// configuration changed mid-run, which cannot happen.
			panic("flowsim: admission factory failed mid-run: " + err.Error())
		}
		ep := &episode{
			adm:     adm,
			buf:     e.cfg.Buffer,
			queues:  make([]chunkQueue, e.cfg.Queues),
			qlen:    make([]units.ByteSize, e.cfg.Queues),
			deficit: make([]int64, e.cfg.Queues),
			eng:     e,
			li:      li,
		}
		ep.enqMark, _ = adm.(buffer.EnqueueMarker)
		ep.deqDrop, _ = adm.(buffer.DequeueDropper)
		ep.deqObs, _ = adm.(buffer.DequeueObserver)
		ep.deqMark, _ = adm.(buffer.DequeueMarker)
		l.ep = ep
	}
	ep := l.ep
	// Enroll every active flow crossing the link.
	ep.flows = ep.flows[:0]
	ep.credit = ep.credit[:0]
	for _, fi := range e.active {
		f := &e.flows[fi]
		for _, pl := range f.path {
			if int(pl) == li {
				ep.flows = append(ep.flows, fi)
				ep.credit = append(ep.credit, 0)
				f.epLinks++
				if f.epOwner < 0 {
					f.epOwner = int32(li)
				}
				break
			}
		}
	}
	if len(ep.flows) == 0 {
		// Nothing to packetize (the backlog can only have been built by
		// flows, but guard the invariant anyway).
		return
	}
	l.demoted = true
	e.stats.Demotions++
	now := e.s.Now()
	ep.startT = now
	ep.lastPump = now
	ep.packets, ep.drops, ep.marks = 0, 0, 0
	ep.carry = 0
	for i := range ep.deficit {
		ep.deficit[i] = 0
	}
	// Convert the fluid backlog into phantom packets through the scheme, so
	// the episode starts from the queue state the fluid model predicts.
	// Classes round-robin over the crossing flows' classes.
	backlog := l.backlog
	l.backlog = 0
	for j := 0; backlog > 0; j++ {
		b := e.cfg.MTU
		if b > backlog {
			b = backlog
		}
		backlog -= b
		cls := e.flows[ep.flows[j%len(ep.flows)]].spec.Class
		if ep.total+b <= e.cfg.Buffer && ep.adm.Admit(ep, cls, b) {
			e.enqueueChunk(ep, cls, chunk{flow: -1, bytes: int32(b), at: now})
		}
	}
	e.s.Rearm(&ep.pump, e.pumpInterval(l), pumpDue, ep)
}

// pumpInterval is the episode tick: pumpBatchMTUs MTUs of serialization
// time at the link rate.
func (e *Engine) pumpInterval(l *linkState) units.Duration {
	return l.cap.Transmit(units.ByteSize(pumpBatchMTUs) * e.cfg.MTU)
}

// enqueueChunk appends an admitted chunk and keeps the episode accounting.
func (e *Engine) enqueueChunk(ep *episode, cls int, c chunk) {
	ep.queues[cls].chunks = append(ep.queues[cls].chunks, c)
	ep.qlen[cls] += units.ByteSize(c.bytes)
	ep.total += units.ByteSize(c.bytes)
	ep.packets++
	e.stats.PacketizedPackets++
}

// pumpDue is the event function of an episode's pump tick.
func pumpDue(arg any) {
	ep := arg.(*episode)
	ep.pump = sim.EventRef{}
	ep.eng.pump(ep.li)
}

// pump is one episode tick of link li: accrue per-flow send credit, feed it
// through the scheme's admission as MTU chunks, drain the queues with DRR
// at link rate, and promote once the transient has drained.
func (e *Engine) pump(li int) {
	l := &e.links[li]
	if !l.demoted {
		return
	}
	ep := l.ep
	now := e.s.Now()
	dt := now.Sub(ep.lastPump)
	ep.lastPump = now

	// Arrivals: each crossing flow offers its current send rate; an owner
	// link packetizes the flow's bytes (a flow spanning two demoted links
	// is owned by the first, so it is not delivered twice).
	for k, fi := range ep.flows {
		f := &e.flows[fi]
		if f.activeIdx < 0 {
			continue
		}
		if f.epOwner < 0 {
			f.epOwner = int32(li)
		}
		if f.epOwner != int32(li) {
			continue
		}
		offered := f.rate
		if !f.ssDone {
			offered = e.sendCap(f, now)
		}
		ep.credit[k] += int64(offered.BytesIn(dt))
		if m := int64(f.remaining - f.inflight); ep.credit[k] > m {
			ep.credit[k] = m
		}
		for ep.credit[k] > 0 {
			b := e.cfg.MTU
			if avail := f.remaining - f.inflight; b > avail {
				b = avail
			}
			if b <= 0 || int64(b) > ep.credit[k] {
				break
			}
			if ep.total+b > e.cfg.Buffer || !ep.adm.Admit(ep, f.spec.Class, b) {
				// Loss: the bytes stay unsent at the source; the flow
				// halves and exits slow start, and the rest of this
				// tick's credit burns with the lost window.
				e.stats.PacketizedDrops++
				ep.drops++
				e.exitSlowStart(f, now)
				e.halve(f, now)
				ep.credit[k] = 0
				break
			}
			ep.credit[k] -= int64(b)
			f.inflight += b
			if ep.enqMark != nil && ep.enqMark.MarkOnEnqueue(ep, f.spec.Class, b) {
				e.stats.PacketizedMarks++
				ep.marks++
				e.exitSlowStart(f, now)
				e.halve(f, now)
			}
			e.enqueueChunk(ep, f.spec.Class, chunk{flow: fi, bytes: int32(b), at: now})
		}
	}

	// Drain: DRR over the service queues at link rate, chunk granularity.
	budget := int64(l.cap.BytesIn(dt)) + ep.carry
	for budget > 0 && ep.total > 0 {
		progressed := false
		for q := 0; q < len(ep.queues) && budget > 0; q++ {
			cq := &ep.queues[q]
			if cq.len() == 0 {
				ep.deficit[q] = 0
				continue
			}
			ep.deficit[q] += e.cfg.Weights[q] * int64(e.cfg.MTU)
			for cq.len() > 0 {
				c := cq.chunks[cq.head]
				b := int64(c.bytes)
				if ep.deficit[q] < b || budget < b {
					break
				}
				cq.pop()
				ep.deficit[q] -= b
				budget -= b
				progressed = true
				e.deliverChunk(ep, q, c, now)
			}
			if cq.len() == 0 {
				ep.deficit[q] = 0
			}
		}
		if !progressed {
			break
		}
	}
	if ep.total > 0 {
		ep.carry = budget
	} else {
		ep.carry = 0
	}

	// Promote once the transient has drained to the promote threshold.
	if ep.total <= e.promoteB {
		e.promote(li)
		return
	}
	e.s.Rearm(&ep.pump, e.pumpInterval(l), pumpDue, ep)
}

// deliverChunk hands one dequeued chunk to its flow (phantom chunks just
// vacate buffer), running the scheme's dequeue-time hooks.
func (e *Engine) deliverChunk(ep *episode, cls int, c chunk, now units.Time) {
	ep.qlen[cls] -= units.ByteSize(c.bytes)
	ep.total -= units.ByteSize(c.bytes)
	sojourn := now.Sub(c.at)
	dropped := false
	if ep.deqDrop != nil && ep.deqDrop.DropOnDequeue(cls, sojourn) {
		dropped = true
		e.stats.PacketizedDrops++
		ep.drops++
	}
	if ep.deqObs != nil {
		ep.deqObs.ObserveDequeue(ep, cls, units.ByteSize(c.bytes), now)
	}
	if c.flow < 0 {
		return
	}
	f := &e.flows[c.flow]
	if f.activeIdx < 0 {
		return
	}
	f.inflight -= units.ByteSize(c.bytes)
	if ep.deqMark != nil && ep.deqMark.MarkOnDequeue(cls, sojourn) {
		e.stats.PacketizedMarks++
		ep.marks++
		e.exitSlowStart(f, now)
		e.halve(f, now)
	}
	if dropped {
		// The scheme discarded the packet at dequeue: the bytes must be
		// resent, so remaining is untouched and the flow pays a recovery.
		e.exitSlowStart(f, now)
		e.halve(f, now)
		return
	}
	if units.ByteSize(c.bytes) >= f.remaining {
		f.remaining = 0
	} else {
		f.remaining -= units.ByteSize(c.bytes)
	}
	if f.remaining <= 0 && f.inflight <= 0 {
		e.complete(c.flow, false)
	}
}

// promote returns link li to fluid: residual chunks become fluid backlog
// again, enrolled flows are released, and the episode span is emitted.
func (e *Engine) promote(li int) {
	l := &e.links[li]
	ep := l.ep
	now := e.s.Now()
	l.demoted = false
	l.backlog = ep.total
	e.markBusy(int32(li)) // the residual backlog drains in advance
	for q := range ep.queues {
		ep.queues[q] = chunkQueue{chunks: ep.queues[q].chunks[:0]}
		ep.qlen[q] = 0
		ep.deficit[q] = 0
	}
	ep.total = 0
	ep.carry = 0
	for _, fi := range ep.flows {
		f := &e.flows[fi]
		if f.activeIdx < 0 {
			continue
		}
		f.epLinks--
		f.inflight = 0
		if f.epOwner == int32(li) {
			f.epOwner = -1
		}
	}
	ep.flows = ep.flows[:0]
	ep.credit = ep.credit[:0]
	e.s.Cancel(ep.pump)
	e.stats.Promotions++
	e.dirty = true
	if e.cfg.Spans != nil {
		e.cfg.Spans.SimSpan("demote", e.cfg.SpanParent, ep.startT, now,
			trace.A("link", e.topo.LinkName(li)),
			trace.AInt("packets", ep.packets),
			trace.AInt("drops", ep.drops),
			trace.AInt("marks", ep.marks))
	}
}
