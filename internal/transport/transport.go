// Package transport implements the packet-level end-host transports the
// paper evaluates under: NewReno TCP (the testbed's "TCP"), CUBIC, and
// DCTCP. The state machines model what matters for queue dynamics — window
// growth and backoff, fast retransmit/recovery, retransmission timeouts
// with RTO_min, and per-packet ECN echo — not byte-exact Linux behaviour.
package transport

import (
	"fmt"
	"math"

	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// Wire-format constants.
const (
	// HeaderSize is the TCP/IP header overhead per segment.
	HeaderSize units.ByteSize = 40
	// DefaultMSS is the payload of a full segment on a 1500B MTU.
	DefaultMSS units.ByteSize = 1460
	// JumboMSS is the payload of a full segment on a 9000B jumbo frame
	// (Fig. 11/12 enable jumbo frames on 100Gbps links).
	JumboMSS units.ByteSize = 8960
	// InitialWindow is the initial congestion window in segments
	// (RFC 6928, as the paper configures).
	InitialWindow = 10
	// DefaultMinRTO matches the paper's testbed RTO_min.
	DefaultMinRTO = 10 * units.Millisecond
	// dupThresh is the classic three-duplicate-ACK fast-retransmit
	// threshold.
	dupThresh = 3
	// maxRTOBackoff caps exponential backoff (RTO ≤ minRTO·2^max).
	maxRTOBackoff = 10
)

// Controller is the congestion-control algorithm plugged into a Sender. A
// controller mutates the sender's cwnd/ssthresh through the setters; the
// sender owns loss detection, recovery bookkeeping, and retransmission.
// The controller table (controllers.go) names every implementation.
type Controller interface {
	// OnAck processes an ACK that cumulatively acknowledged acked new
	// bytes outside of fast recovery; echo reports the ECN congestion
	// echo bit.
	OnAck(s *Sender, acked units.ByteSize, echo bool)
	// OnLoss runs at fast-retransmit time: multiplicative decrease. The
	// sender then applies NewReno window inflation on top.
	OnLoss(s *Sender)
	// OnTimeout runs on retransmission timeout: collapse the window.
	OnTimeout(s *Sender)
}

// FlowConfig describes one flow from a local endpoint to a destination
// host.
type FlowConfig struct {
	// Flow is the flow id, in [1, MaxFlowID]. It is unique in the
	// endpoint's flow table: no flow started or received through the table
	// may have used it before. The endpoints of one network share a table
	// (NewPooledEndpoint), so an id is unique network-wide; a NewEndpoint
	// has a table of its own.
	Flow packet.FlowID
	// Dst is the destination host id.
	Dst int
	// Class is the service class stamped on data packets.
	Class int
	// ClassOf, when non-nil, overrides Class per sequence number; the
	// PIAS classifier uses it to demote a flow's later bytes.
	ClassOf func(seq int64) int
	// Size is the flow length in payload bytes; 0 means unbounded
	// (an iperf-style flow stopped explicitly with Stop).
	Size units.ByteSize
	// MSS is the segment payload size (DefaultMSS when zero).
	MSS units.ByteSize
	// Ctrl is the congestion controller (NewReno when nil).
	Ctrl Controller
	// ECN enables ECT marking on data packets (set for DCTCP).
	ECN bool
	// MinRTO is the RTO floor (DefaultMinRTO when zero).
	MinRTO units.Duration
	// OnComplete, when non-nil, fires once when the last payload byte is
	// cumulatively acknowledged, with the flow completion time.
	OnComplete func(fct units.Duration)
}

// Sender is one TCP-like flow source.
type Sender struct {
	ep         *Endpoint // the endpoint that retires it on completion; nil for a bare sender
	prev, next *Sender   // the endpoint's other live senders; see Endpoint.live
	sim        *sim.Simulator
	pkts       *packet.Pool
	nic        nic

	flow    packet.FlowID
	src     int
	dst     int
	class   int
	classOf func(seq int64) int

	mss  units.ByteSize
	size int64 // flow length in payload bytes; MaxInt64 when unbounded
	ctrl Controller

	cwnd     float64 // congestion window, bytes
	ssthresh float64
	una      int64 // lowest unacknowledged byte
	nxt      int64 // next byte to send
	rewound  int64 // the highest nxt a timeout's go-back-N rewound; see FlowTable.retire

	dupacks int
	recover int64 // recovery ends when una passes this

	rto     units.Duration
	minRTO  units.Duration
	backoff uint
	rtoEv   sim.EventRef // the pending retransmission timeout; see resetRTO
	srtt    units.Duration
	rttvar  units.Duration

	// Karn-style single outstanding RTT sample.
	sampleSeq  int64 // -1 when no sample outstanding
	sampleTime units.Time

	started    units.Time
	onComplete func(fct units.Duration)

	stats SenderStats

	// The flags share a word, which keeps a flow's slot small.
	ecn        bool // ECT-mark data packets
	inRecovery bool // in fast recovery, until una passes recover
	hasSRTT    bool
	done       bool
}

// SenderStats counts sender-side events.
type SenderStats struct {
	SentPackets  int64
	SentBytes    units.ByteSize
	Retransmits  int64
	Timeouts     int64
	FastRecovers int64
	EchoedAcks   int64
}

// init makes snd the sender of cfg from host src; it leaves snd as it was
// when it refuses cfg.
func (snd *Sender) init(s *sim.Simulator, pkts *packet.Pool, src int, out nic, cfg FlowConfig) error {
	if cfg.Dst == src {
		return fmt.Errorf("transport: flow %d is a self-loop at host %d", cfg.Flow, src)
	}
	if cfg.Size < 0 {
		return fmt.Errorf("transport: flow %d has negative size %d", cfg.Flow, cfg.Size)
	}
	if cfg.MinRTO < 0 { // the RTO timer would re-arm at the same instant forever
		return fmt.Errorf("transport: flow %d has negative minimum RTO %v", cfg.Flow, cfg.MinRTO)
	}
	mss := cfg.MSS
	if mss == 0 {
		mss = DefaultMSS
	}
	if mss <= 0 || mss > math.MaxInt32 { // a segment's payload is an int32
		return fmt.Errorf("transport: flow %d has invalid MSS %d", cfg.Flow, cfg.MSS)
	}
	ctrl := cfg.Ctrl
	if ctrl == nil {
		ctrl = NewReno()
	}
	minRTO := cfg.MinRTO
	if minRTO == 0 {
		minRTO = DefaultMinRTO
	}
	size := int64(cfg.Size)
	if size == 0 {
		size = math.MaxInt64
	}
	*snd = Sender{
		sim:        s,
		pkts:       pkts,
		nic:        out,
		flow:       cfg.Flow,
		src:        src,
		dst:        cfg.Dst,
		class:      cfg.Class,
		classOf:    cfg.ClassOf,
		mss:        mss,
		size:       size,
		ecn:        cfg.ECN,
		ctrl:       ctrl,
		cwnd:       float64(InitialWindow) * float64(mss),
		ssthresh:   math.MaxFloat64,
		rto:        minRTO,
		minRTO:     minRTO,
		sampleSeq:  -1,
		started:    s.Now(),
		onComplete: cfg.OnComplete,
	}
	return nil
}

// Flow returns the flow id.
func (s *Sender) Flow() packet.FlowID { return s.flow }

// Done reports whether the flow has completed (or was stopped and drained).
func (s *Sender) Done() bool { return s.done }

// Cwnd returns the congestion window in bytes.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SetCwnd lets a Controller adjust the window; it enforces the one-MSS
// floor.
func (s *Sender) SetCwnd(w float64) {
	if w < float64(s.mss) {
		w = float64(s.mss)
	}
	s.cwnd = w
}

// Ssthresh returns the slow-start threshold in bytes.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// SetSsthresh lets a Controller adjust ssthresh; it enforces the two-MSS
// floor (RFC 5681).
func (s *Sender) SetSsthresh(v float64) {
	if v < 2*float64(s.mss) {
		v = 2 * float64(s.mss)
	}
	s.ssthresh = v
}

// MSS returns the segment payload size.
func (s *Sender) MSS() units.ByteSize { return s.mss }

// Una returns the lowest unacknowledged byte (the cumulative ACK point).
func (s *Sender) Una() int64 { return s.una }

// Nxt returns the next byte to be sent.
func (s *Sender) Nxt() int64 { return s.nxt }

// FlightSize returns the outstanding bytes.
func (s *Sender) FlightSize() units.ByteSize { return units.ByteSize(s.nxt - s.una) }

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() units.Duration { return s.srtt }

// Now exposes the simulated clock to controllers.
func (s *Sender) Now() units.Time { return s.sim.Now() }

// start begins transmission.
func (s *Sender) start() { s.trySend() }

// Stop ends an unbounded flow: no new data is sent; in-flight data still
// drains (retransmissions included). Completion fires when the last sent
// byte is acknowledged.
func (s *Sender) Stop() {
	if s.done {
		return
	}
	s.size = s.nxt
	if s.una >= s.size {
		s.complete()
	}
}

func (s *Sender) classFor(seq int64) int {
	if s.classOf != nil {
		return s.classOf(seq)
	}
	return s.class
}

func (s *Sender) trySend() {
	if s.done {
		return
	}
	wnd := int64(s.cwnd)
	if wnd < int64(s.mss) {
		wnd = int64(s.mss)
	}
	for s.nxt < s.size {
		payload := int64(s.mss)
		if rest := s.size - s.nxt; rest < payload {
			payload = rest
		}
		if s.nxt-s.una+payload > wnd {
			break
		}
		s.transmit(s.nxt, units.ByteSize(payload), false)
		s.nxt += payload
	}
}

func (s *Sender) transmit(seq int64, payload units.ByteSize, isRtx bool) {
	p := s.pkts.Get()
	p.Kind = packet.Data
	p.Flow = s.flow
	p.Src = s.src
	p.Dst = s.dst
	p.Seq = seq
	p.Payload = int32(payload)
	p.Size = payload + HeaderSize
	p.Class = s.classFor(seq)
	p.SentAt = s.sim.Now()
	if s.ecn {
		p.ECN = packet.ECT
	}
	if isRtx {
		s.stats.Retransmits++
		if s.sampleSeq == seq {
			s.sampleSeq = -1 // Karn: never time a retransmitted segment
		}
	} else if s.sampleSeq < 0 {
		s.sampleSeq = seq
		s.sampleTime = s.sim.Now()
	}
	s.stats.SentPackets++
	s.stats.SentBytes += p.Size
	if !s.rtoEv.Pending() {
		s.resetRTO()
	}
	s.nic.Send(p)
}

// onAck processes a cumulative acknowledgment.
func (s *Sender) onAck(p *packet.Packet) {
	if s.done {
		return
	}
	if p.Echo {
		s.stats.EchoedAcks++
	}
	switch {
	case p.Ack > s.una:
		s.onNewAck(p.Ack, p.Echo)
	case p.Ack == s.una:
		s.onDupAck()
	}
	// p.Ack < s.una: stale ACK, ignored.
}

func (s *Sender) onNewAck(ack int64, echo bool) {
	acked := units.ByteSize(ack - s.una)
	s.una = ack
	s.backoff = 0
	if s.sampleSeq >= 0 && ack > s.sampleSeq {
		s.updateRTT(s.sim.Now().Sub(s.sampleTime))
		s.sampleSeq = -1
	}
	if s.inRecovery {
		if ack >= s.recover {
			// Full ACK: leave recovery and deflate to ssthresh.
			s.inRecovery = false
			s.dupacks = 0
			s.SetCwnd(s.ssthresh)
		} else {
			// NewReno partial ACK: the next hole is lost too.
			// Retransmit it and deflate by the acked amount
			// (plus one MSS of inflation).
			s.retransmitUna()
			s.SetCwnd(s.cwnd - float64(acked) + float64(s.mss))
		}
	} else {
		s.dupacks = 0
		s.ctrl.OnAck(s, acked, echo)
	}
	if s.una >= s.size {
		s.complete()
		return
	}
	s.resetRTO()
	s.trySend()
}

func (s *Sender) onDupAck() {
	if s.nxt == s.una {
		return // nothing in flight: e.g. duplicate of the final ACK
	}
	if s.inRecovery {
		// Window inflation: each dup ACK signals a departed segment.
		s.cwnd += float64(s.mss)
		s.trySend()
		return
	}
	s.dupacks++
	if s.dupacks < dupThresh {
		return
	}
	// Fast retransmit.
	s.inRecovery = true
	s.recover = s.nxt
	s.stats.FastRecovers++
	s.ctrl.OnLoss(s)
	s.SetCwnd(s.ssthresh + dupThresh*float64(s.mss))
	s.retransmitUna()
	s.resetRTO()
}

func (s *Sender) retransmitUna() {
	payload := int64(s.mss)
	if rest := s.size - s.una; rest < payload {
		payload = rest
	}
	if payload <= 0 {
		return
	}
	s.transmit(s.una, units.ByteSize(payload), true)
}

// resetRTO (re)arms the retransmission timeout s.rto from now. A flow's
// timer is its rtoEv: the event calls a package function on the sender, so
// a flow allocates no timer and arming allocates nothing.
func (s *Sender) resetRTO() { s.sim.Rearm(&s.rtoEv, s.rto, senderTimeout, s) }

// stopRTO disarms the retransmission timeout.
func (s *Sender) stopRTO() {
	s.sim.Cancel(s.rtoEv)
	s.rtoEv = sim.EventRef{}
}

// senderTimeout fires a sender's retransmission timeout. It clears the
// handle before the handler runs.
func senderTimeout(arg any) {
	s := arg.(*Sender)
	s.rtoEv = sim.EventRef{}
	s.onTimeout()
}

func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	s.stats.Timeouts++
	s.ctrl.OnTimeout(s)
	s.inRecovery = false
	s.dupacks = 0
	s.sampleSeq = -1
	if s.backoff < maxRTOBackoff {
		s.backoff++
	}
	s.rto = s.baseRTO() << s.backoff
	// Go-back-N: resume from the ACK point.
	s.rewound = max(s.rewound, s.nxt)
	s.nxt = s.una
	payload := int64(s.mss)
	if rest := s.size - s.nxt; rest < payload {
		payload = rest
	}
	if payload <= 0 {
		// Stopped flow whose tail was already acknowledged.
		s.complete()
		return
	}
	s.transmit(s.nxt, units.ByteSize(payload), true)
	s.nxt += payload
	s.resetRTO()
}

func (s *Sender) baseRTO() units.Duration {
	if !s.hasSRTT {
		return s.minRTO
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.minRTO {
		rto = s.minRTO
	}
	return rto
}

func (s *Sender) updateRTT(m units.Duration) {
	if m <= 0 {
		m = units.Microsecond
	}
	if !s.hasSRTT {
		s.srtt = m
		s.rttvar = m / 2
		s.hasSRTT = true
	} else {
		// RFC 6298 with α=1/8, β=1/4.
		diff := s.srtt - m
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + m) / 8
	}
	s.rto = s.baseRTO()
}

func (s *Sender) complete() {
	if s.done {
		return
	}
	s.done = true
	s.stopRTO()
	if s.ep != nil {
		s.ep.retire(s)
	}
	if s.onComplete != nil {
		s.onComplete(s.sim.Now().Sub(s.started))
	}
}

// Receiver is the flow sink: cumulative ACKs with out-of-order buffering
// and ECN echo. Every data packet is acknowledged at once, echoing its own
// CE mark (per-packet echo, DCTCP-exact). A receiver lives in its flow's
// slot of the flow table (flowtable.go).
type Receiver struct {
	ep     *Endpoint // the host it receives at; nil while its slot holds no receiver
	rcvNxt int64
	// ooo is the buffered out-of-order data, runs from the flow table's
	// arena linked upward from the lowest: sorted, disjoint, non-touching,
	// above rcvNxt. last is the highest run. Both are nil when none.
	ooo, last *run
	retired   bool // final, its flow's sender done; see FlowTable.retire
}

// Received returns the payload bytes delivered in order so far.
func (r *Receiver) Received() units.ByteSize { return units.ByteSize(r.rcvNxt) }

func (r *Receiver) onData(p *packet.Packet) {
	end := p.Seq + int64(p.Payload)
	if p.Seq <= r.rcvNxt {
		if end > r.rcvNxt {
			r.rcvNxt = end
		}
		// Pull every buffered run the delivered prefix now reaches.
		var pulled *run // the last run pulled
		next := r.ooo
		for ; next != nil && next.seq <= r.rcvNxt; pulled, next = next, next.next {
			r.rcvNxt = max(r.rcvNxt, next.end)
		}
		if pulled != nil {
			r.ep.flows.runs.put(r.ooo, pulled)
			if r.ooo = next; next == nil {
				r.last = nil
			}
		}
	} else {
		r.buffer(p.Seq, end)
	}
	r.ep.ack(p, r.rcvNxt)
}

// buffer adds [seq, end), which lies above rcvNxt, to the out-of-order runs.
// Data that extends the last run or lands after it, the common case behind a
// single hole, costs O(1); anything else merges with every run it overlaps
// or touches.
func (r *Receiver) buffer(seq, end int64) {
	runs, last := &r.ep.flows.runs, r.last
	if last == nil || seq > last.end {
		n := runs.get(seq, end, nil)
		if last == nil {
			r.ooo = n
		} else {
			last.next = n
		}
		r.last = n
		return
	}
	if seq >= last.seq {
		last.end = max(last.end, end)
		return
	}
	// The runs from first up to merged overlap or touch [seq, end); prev is
	// the run below first. Some run ends at or past seq: the last one.
	var prev *run
	first := r.ooo
	for first.end < seq {
		prev, first = first, first.next
	}
	if first.seq > end { // none does: a run of its own below first
		n := runs.get(seq, end, first)
		if prev == nil {
			r.ooo = n
		} else {
			prev.next = n
		}
		return
	}
	merged := first
	for merged.next != nil && merged.next.seq <= end {
		merged = merged.next
	}
	first.seq, first.end = min(seq, first.seq), max(end, merged.end)
	if merged != first {
		rest := merged.next
		runs.put(first.next, merged)
		if first.next = rest; rest == nil {
			r.last = first
		}
	}
}

// nic is where a host's packets leave. A *netsim.Host is one; holding it as
// an interface, not as the method value host.Send, allocates nothing.
type nic interface{ Send(p *packet.Packet) }

// Endpoint is the transport stack of one host: it demultiplexes arriving
// packets to flow senders/receivers through its flow table and originates
// new flows.
type Endpoint struct {
	sim     *sim.Simulator
	host    *netsim.Host
	nic     nic          // the host, where every flow's sender and receiver send
	pkts    *packet.Pool // where this host's packets come from; see Receive
	flows   *FlowTable   // where its senders and receivers live
	live    *Sender      // its live senders, linked through Sender.next; see retire
	retired SenderStats  // the counters of every completed sender
	acks    int64        // the pure ACKs its receivers emitted, retired ones included
}

// NewEndpoint installs a transport stack on host, with a packet free list and
// a flow table of its own.
func NewEndpoint(s *sim.Simulator, host *netsim.Host) *Endpoint {
	return NewPooledEndpoint(s, host, new(packet.Pool), new(FlowTable))
}

// NewPooledEndpoint installs a transport stack on host that takes its packets
// from pkts and keeps its flows in flows. A network's endpoints share one
// pool, so the network allocates for its own peak of packets in flight, not
// for the sum of every host's; they share one flow table, so a flow's sender
// and receiver sit in one slot and the receiver retires with the sender.
func NewPooledEndpoint(s *sim.Simulator, host *netsim.Host, pkts *packet.Pool, flows *FlowTable) *Endpoint {
	ep := &Endpoint{sim: s, host: host, nic: host, pkts: pkts, flows: flows}
	host.SetHandler(ep)
	return ep
}

// Host returns the attached host.
func (ep *Endpoint) Host() *netsim.Host { return ep.host }

// StartFlow originates a flow from this endpoint. The sender begins
// transmitting immediately (connection setup is not modelled, as in the
// paper's ns-2 simulations). It refuses an id outside [1, MaxFlowID] or one
// its flow table has seen before.
func (ep *Endpoint) StartFlow(cfg FlowConfig) (*Sender, error) {
	slot, err := ep.flows.claim(cfg.Flow)
	if err != nil {
		return nil, fmt.Errorf("transport: %w at host %d", err, ep.host.ID())
	}
	snd := &slot.snd
	if err := snd.init(ep.sim, ep.pkts, ep.host.ID(), ep.nic, cfg); err != nil {
		return nil, err
	}
	snd.ep = ep
	if snd.next = ep.live; snd.next != nil {
		snd.next.prev = snd
	}
	ep.live = snd
	ep.flows.senders++
	snd.start()
	return snd, nil
}

// retire forgets a completed sender, keeping its counters in the endpoint's
// totals: an endpoint holds state for its live flows, not every flow it
// ever started.
func (ep *Endpoint) retire(snd *Sender) {
	if snd.prev != nil {
		snd.prev.next = snd.next
	} else {
		ep.live = snd.next
	}
	if snd.next != nil {
		snd.next.prev = snd.prev
	}
	snd.prev, snd.next = nil, nil
	ep.retired.add(snd.stats)
	ep.flows.retire(snd)
}

// Receive, the host's netsim.Node, is where a delivered packet's life ends:
// the flow state machines read it and keep nothing of it, so it goes back to
// the pool it came from. Packets dropped on the way are released by the port
// that dropped them, which is why the pool refills wherever its packets die.
func (ep *Endpoint) Receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		ep.flows.deliver(ep, p)
	case packet.Ack:
		if snd := ep.flows.sender(p.Flow); snd != nil && snd.ep == ep && !snd.done {
			snd.onAck(p)
		}
		// ACKs for completed/unknown flows are silently dropped, like a
		// closed socket answering with RST would end the exchange.
	}
	p.Release()
}

// ack answers data packet p, of a flow this endpoint receives, with the
// cumulative ACK ack: back to p's source, in the service class p arrived
// in, echoing p's CE mark.
func (ep *Endpoint) ack(p *packet.Packet, ack int64) {
	ep.acks++
	a := ep.pkts.Get()
	a.Kind = packet.Ack
	a.Flow = p.Flow
	a.Src = ep.host.ID()
	a.Dst = p.Src
	a.Ack = ack
	a.Size = packet.AckSize
	a.Class = p.Class
	a.Echo = p.ECN == packet.CE
	ep.nic.Send(a)
}
