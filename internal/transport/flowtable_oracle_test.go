package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// parentReceiver, parentRunStock and parentEndpoint are the receiver and the
// endpoint as they stood before the flow table, with a sender map and a
// receiver map per endpoint: their bodies, and stats.go's, kept verbatim
// (identifiers parent-prefixed). The one change is how a parent sender
// reaches its endpoint on completion; see parentEndpoint.StartFlow.
type parentReceiver struct {
	pkts     *packet.Pool
	stock    *parentRunStock
	me       int
	emit     func(*packet.Packet)
	flow     packet.FlowID
	rcvNxt   int64
	ooo      []byteRun // buffered out-of-order data: sorted, disjoint, non-touching, above rcvNxt; nil when none
	acksSent int64
}

// parentRunStock is an endpoint's supply of empty run slices. A receiver holds one
// only while it has out-of-order data, so a host's receivers share about as
// many as they have flows with holes at once, not one per flow ever received.
type parentRunStock [][]byteRun

func (st *parentRunStock) take() []byteRun {
	n := len(*st)
	if n == 0 {
		return nil
	}
	runs := (*st)[n-1]
	*st = (*st)[:n-1]
	return runs
}

func parentNewReceiver(pkts *packet.Pool, stock *parentRunStock, me int, emit func(*packet.Packet), flow packet.FlowID) *parentReceiver {
	return &parentReceiver{pkts: pkts, stock: stock, me: me, emit: emit, flow: flow}
}

func (r *parentReceiver) onData(p *packet.Packet) {
	end := p.Seq + int64(p.Payload)
	if p.Seq <= r.rcvNxt {
		if end > r.rcvNxt {
			r.rcvNxt = end
		}
		// Pull every buffered run the delivered prefix now reaches.
		n := 0
		for ; n < len(r.ooo) && r.ooo[n].seq <= r.rcvNxt; n++ {
			r.rcvNxt = max(r.rcvNxt, r.ooo[n].end)
		}
		if n > 0 {
			r.ooo = r.ooo[:copy(r.ooo, r.ooo[n:])]
			if len(r.ooo) == 0 {
				*r.stock = append(*r.stock, r.ooo)
				r.ooo = nil
			}
		}
	} else {
		r.buffer(p.Seq, end)
	}
	r.sendAck(p.Src, p.Class, p.ECN == packet.CE)
}

// buffer adds [seq, end), which lies above rcvNxt, to the out-of-order runs.
// Data that extends the last run or lands after it, the common case behind a
// single hole, costs O(1); anything else merges with every run it overlaps
// or touches.
func (r *parentReceiver) buffer(seq, end int64) {
	n := len(r.ooo)
	if n == 0 {
		r.ooo = r.stock.take()
	}
	if n == 0 || seq > r.ooo[n-1].end {
		r.ooo = append(r.ooo, byteRun{seq, end})
		return
	}
	if last := &r.ooo[n-1]; seq >= last.seq {
		last.end = max(last.end, end)
		return
	}
	// Runs [i, j) overlap or touch [seq, end).
	i := 0
	for r.ooo[i].end < seq {
		i++
	}
	j := i
	for j < n && r.ooo[j].seq <= end {
		j++
	}
	if i == j {
		r.ooo = slices.Insert(r.ooo, i, byteRun{seq, end})
		return
	}
	r.ooo[i] = byteRun{min(seq, r.ooo[i].seq), max(end, r.ooo[j-1].end)}
	r.ooo = slices.Delete(r.ooo, i+1, j)
}

// sendAck acknowledges everything received so far to peer, in the service
// class the data arrived in.
func (r *parentReceiver) sendAck(peer, class int, echo bool) {
	r.acksSent++
	p := r.pkts.Get()
	p.Kind = packet.Ack
	p.Flow = r.flow
	p.Src = r.me
	p.Dst = peer
	p.Ack = r.rcvNxt
	p.Size = packet.AckSize
	p.Class = class
	p.Echo = echo
	r.emit(p)
}

// parentEndpoint is the transport stack of one host: it demultiplexes arriving
// packets to flow senders/receivers and originates new flows.
type parentEndpoint struct {
	sim       *sim.Simulator
	host      *netsim.Host
	send      func(*packet.Packet)      // host.Send, bound once for every flow's sender and receiver
	pkts      *packet.Pool              // where this host's packets come from; see receive
	runs      parentRunStock            // its receivers' empty run slices
	senders   map[packet.FlowID]*Sender // live flows only; see retire
	receivers map[packet.FlowID]*parentReceiver
	retired   SenderStats // the counters of every completed sender
}

// StartFlow originates a flow from this endpoint. The sender begins
// transmitting immediately (connection setup is not modelled, as in the
// paper's ns-2 simulations).
//
// The parent set snd.ep = ep, and the sender's completion called
// ep.retire(snd) right before cfg.OnComplete. A Sender's ep is an *Endpoint
// now, so the parent's retire runs from a completion callback wrapped around
// cfg.OnComplete, at that same point.
func (ep *parentEndpoint) StartFlow(cfg FlowConfig) (*Sender, error) {
	if _, ok := ep.senders[cfg.Flow]; ok {
		return nil, fmt.Errorf("transport: duplicate flow id %d at host %d", cfg.Flow, ep.host.ID())
	}
	var snd *Sender
	onComplete := cfg.OnComplete
	cfg.OnComplete = func(fct units.Duration) {
		ep.retire(snd)
		if onComplete != nil {
			onComplete(fct)
		}
	}
	snd, err := newSender(ep.sim, ep.pkts, ep.host.ID(), ep.send, cfg)
	if err != nil {
		return nil, err
	}
	ep.senders[cfg.Flow] = snd
	snd.start()
	return snd, nil
}

// retire forgets a completed sender, keeping its counters in the endpoint's
// totals: an endpoint holds state for its live flows, not every flow it
// ever started.
func (ep *parentEndpoint) retire(snd *Sender) {
	delete(ep.senders, snd.flow)
	ep.retired.add(snd.stats)
}

// receive is where a delivered packet's life ends: the flow state machines
// read it and keep nothing of it, so it goes back to the pool it came from.
// Packets dropped on the way are released by the port that dropped them,
// which is why the pool refills no matter where its packets die.
func (ep *parentEndpoint) receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		r, ok := ep.receivers[p.Flow]
		if !ok {
			r = parentNewReceiver(ep.pkts, &ep.runs, ep.host.ID(), ep.send, p.Flow)
			ep.receivers[p.Flow] = r
		}
		r.onData(p)
	case packet.Ack:
		if snd, ok := ep.senders[p.Flow]; ok {
			snd.onAck(p)
		}
		// ACKs for completed/unknown flows are silently dropped, like a
		// closed socket answering with RST would end the exchange.
	}
	p.Release()
}

// TotalStats sums the sender counters of every flow this endpoint started,
// live or completed.
func (ep *parentEndpoint) TotalStats() SenderStats {
	t := ep.retired
	for _, snd := range ep.senders {
		t.add(snd.stats)
	}
	return t
}

// ActiveFlows counts senders that have not yet completed.
func (ep *parentEndpoint) ActiveFlows() int { return len(ep.senders) }

// CwndTotal sums the congestion windows of the endpoint's active senders,
// truncating each window to whole bytes first so the sum stays
// order-independent.
func (ep *parentEndpoint) CwndTotal() int64 {
	var total int64
	for _, snd := range ep.senders {
		total += int64(snd.cwnd)
	}
	return total
}

// AcksSent sums the pure ACKs this endpoint's receivers have emitted.
func (ep *parentEndpoint) AcksSent() int64 {
	var n int64
	for _, r := range ep.receivers {
		n += r.acksSent
	}
	return n
}

// tableHosts is how many hosts a flow-table script runs on.
const tableHosts = 4

// tableNet is one side of a flow-table script: tableHosts endpoints with a
// simulator of their own, every packet they emit kept (detached) in out.
// Exactly one of parent and eps is set.
type tableNet struct {
	sim     *sim.Simulator
	parent  []*parentEndpoint
	eps     []*Endpoint
	flows   *FlowTable
	senders map[packet.FlowID]*Sender
	out     []packet.Packet
	done    []string // completions since the last check, in order: flow id and FCT
}

func newTableNet(parent bool) *tableNet {
	n := &tableNet{sim: sim.New(), senders: map[packet.FlowID]*Sender{}}
	pkts := new(packet.Pool)
	capture := func(p *packet.Packet) {
		n.out = append(n.out, p.Detached())
		p.Release()
	}
	if !parent {
		n.flows = new(FlowTable)
	}
	for h := 0; h < tableHosts; h++ {
		host := netsim.NewHost(h, nil)
		if parent {
			n.parent = append(n.parent, &parentEndpoint{sim: n.sim, host: host, send: capture, pkts: pkts,
				senders: map[packet.FlowID]*Sender{}, receivers: map[packet.FlowID]*parentReceiver{}})
			continue
		}
		ep := NewPooledEndpoint(n.sim, host, pkts, n.flows)
		ep.nic = sendFunc(capture)
		n.eps = append(n.eps, ep)
	}
	return n
}

func (n *tableNet) start(src int, cfg FlowConfig) error {
	cfg.OnComplete = func(fct units.Duration) { n.done = append(n.done, fmt.Sprintf("%d:%v", cfg.Flow, fct)) }
	var snd *Sender
	var err error
	if n.parent != nil {
		snd, err = n.parent[src].StartFlow(cfg)
	} else {
		snd, err = n.eps[src].StartFlow(cfg)
	}
	if err == nil {
		n.senders[cfg.Flow] = snd
	}
	return err
}

func (n *tableNet) deliver(p packet.Packet) {
	if n.parent != nil {
		n.parent[p.Dst].receive(&p)
	} else {
		n.eps[p.Dst].Receive(&p)
	}
}

// books is what an endpoint reports: its counters and its live windows.
type books struct {
	total  SenderStats
	acks   int64
	active int
	cwnd   int64
}

func (n *tableNet) books(h int) books {
	if n.parent != nil {
		ep := n.parent[h]
		return books{ep.TotalStats(), ep.AcksSent(), ep.ActiveFlows(), ep.CwndTotal()}
	}
	ep := n.eps[h]
	return books{ep.TotalStats(), ep.AcksSent(), ep.ActiveFlows(), ep.CwndTotal()}
}

// tableOutcome tallies what scripts exercised.
type tableOutcome struct {
	starts, refusals, stops, timeouts int
	acksLive, acksDone, acksUnknown   int // crafted ACKs, by their flow's state
	strays, tombs, departs            int // data for no sender's id; answered by a tombstone in a slab, after it left
}

// tableAgainstMaps plays script on two networks of tableHosts hosts, one
// with the parent's map endpoints and one whose endpoints share a flow
// table, and fails at the first step after which they differ: in the
// packets emitted (every field), the completions, or any endpoint's
// TotalStats, AcksSent, ActiveFlows or CwndTotal.
//
// Each step is one of: start a flow with the next dense id (unbounded,
// one segment or a few, Reno or DCTCP, now and then a size both refuse);
// deliver the oldest packet in flight, a random one, or a random one that
// stays in flight as a duplicate; drop one; deliver again a data packet
// delivered before, the late duplicate a retired flow answers from its
// tombstone; deliver a crafted ACK, up to the flow's next byte, for a live,
// completed or unknown id, at the flow's source or another host, never past
// what the flow's receiver holds; deliver
// data for an id no sender has, always at the same host; Stop a flow; let
// 0.25–1 ms pass, which fires timeouts. Data is only ever what a sender
// emitted: a receiver retires when no packet its sender sent can move it,
// and a packet no sender sent could. At the end every flow is stopped and
// the network drained without loss, so each dense block of ids retires and
// its slab leaves the table, and every data packet ever delivered is
// delivered once more.
func tableAgainstMaps(t testing.TB, data []byte) (out tableOutcome) {
	sc := byteScript{data: data}
	ref, sut := newTableNet(true), newTableNet(false)
	var flight, delivered []packet.Packet
	nextID := packet.FlowID(1)
	src := map[packet.FlowID]int{}

	check := func(step string) {
		t.Helper()
		if !slices.Equal(sut.out, ref.out) {
			t.Fatalf("%s: emitted\n%v\nparent emitted\n%v", step, sut.out, ref.out)
		}
		if !slices.Equal(sut.done, ref.done) {
			t.Fatalf("%s: completions %v, parent %v", step, sut.done, ref.done)
		}
		for h := 0; h < tableHosts; h++ {
			if got, want := sut.books(h), ref.books(h); got != want {
				t.Fatalf("%s: host %d reports %+v, parent %+v", step, h, got, want)
			}
		}
		flight = append(flight, sut.out...)
		sut.out, ref.out = sut.out[:0], ref.out[:0]
		sut.done, ref.done = sut.done[:0], ref.done[:0]
	}
	deliver := func(p packet.Packet) {
		if p.Kind == packet.Data {
			delivered = append(delivered, p)
			if b, i := sut.flows.block(p.Flow, false); b != nil && b.acks != nil {
				out.departs++
			} else if b != nil && b.slab != nil && b.slab.slots[i].rcv.retired {
				out.tombs++
			}
		}
		sut.deliver(p)
		ref.deliver(p)
	}
	take := func(i int) packet.Packet {
		p := flight[i]
		if i == 0 {
			flight = flight[1:]
		} else {
			flight = slices.Delete(flight, i, i+1)
		}
		return p
	}
	advance := func(d units.Duration) {
		until := sut.sim.Now().Add(d)
		sut.sim.RunUntil(until)
		ref.sim.RunUntil(until)
	}

	for step := 0; sc.pos < len(sc.data); step++ {
		name := fmt.Sprintf("step %d", step)
		switch op := sc.n(16); {
		case op < 4: // start
			s := sc.n(tableHosts)
			cfg := FlowConfig{Flow: nextID, Dst: (s + 1 + sc.n(tableHosts-1)) % tableHosts, Class: sc.n(3),
				MSS: 1000, MinRTO: units.Millisecond}
			switch sc.n(8) {
			case 0:
				cfg.Size = 0 // unbounded until Stop
			case 1:
				cfg.Size = -1 // refused by both
			case 2, 3, 4:
				cfg.Size = units.ByteSize(1 + sc.n(1000)) // one segment
			default:
				cfg.Size = units.ByteSize(1+sc.n(12)) * 700
			}
			var refCfg FlowConfig
			if sc.n(3) == 0 {
				cfg.Ctrl, cfg.ECN = NewDCTCP(), true
				refCfg = cfg
				refCfg.Ctrl = NewDCTCP()
			} else {
				refCfg = cfg
			}
			err, refErr := sut.start(s, cfg), ref.start(s, refCfg)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: StartFlow(%+v) at host %d: error %v, parent %v", name, cfg, s, err, refErr)
			}
			if err != nil {
				out.refusals++
				break
			}
			src[nextID] = s
			nextID++
			out.starts++
		case op < 6: // the oldest packet in flight
			if len(flight) > 0 {
				deliver(take(0))
			}
		case op < 8: // reordered
			if len(flight) > 0 {
				deliver(take(sc.n(len(flight))))
			}
		case op == 8: // duplicated
			if len(flight) > 0 {
				deliver(flight[sc.n(len(flight))])
			}
		case op == 9: // lost
			if len(flight) > 0 {
				take(sc.n(len(flight)))
			}
		case op == 10: // a late duplicate
			if len(delivered) > 0 {
				deliver(delivered[sc.n(len(delivered))])
			}
		case op == 11: // a crafted ACK
			id := packet.FlowID(1 + sc.n(int(nextID)+2)) // started, or one or two past
			at, ack := sc.n(tableHosts), int64(0)
			switch snd, ok := ref.senders[id]; {
			case !ok:
				out.acksUnknown++
			case snd.Done():
				out.acksDone++
			default:
				out.acksLive++
			}
			if snd, ok := ref.senders[id]; ok {
				if sc.n(2) == 0 {
					at = src[id]
				}
				// Up to what the receiver holds: an ACK past it would leave
				// the sender waiting for an ACK the receiver never sends.
				var got int64
				if r, ok := ref.parent[snd.dst].receivers[id]; ok {
					got = r.rcvNxt
				}
				ack = min(int64(sc.n(1+int(min(got, 1<<16)/100)))*100, got)
			}
			deliver(packet.Packet{Kind: packet.Ack, Flow: id, Src: (at + 1) % tableHosts, Dst: at, Ack: ack, Size: packet.AckSize, Class: sc.n(3)})
		case op == 12: // data for an id no sender has
			id := 1000 + packet.FlowID(sc.n(4))
			seq := int64(sc.n(20)) * 100
			deliver(packet.Packet{Kind: packet.Data, Flow: id, Src: (int(id) + 1) % tableHosts, Dst: int(id) % tableHosts,
				Seq: seq, Payload: int32(100 * (1 + sc.n(5))), Size: 600, Class: sc.n(3), ECN: packet.ECN(sc.n(3))})
			out.strays++
		case op == 13: // Stop
			if nextID > 1 {
				id := packet.FlowID(1 + sc.n(int(nextID-1)))
				sut.senders[id].Stop()
				ref.senders[id].Stop()
				out.stops++
			}
		default: // time passes
			advance(units.Duration(1+sc.n(4)) * units.Millisecond / 4)
		}
		check(name)
	}

	// Drain: every flow stopped, then nothing lost until nothing is left.
	for id := packet.FlowID(1); id < nextID; id++ {
		sut.senders[id].Stop()
		ref.senders[id].Stop()
		check(fmt.Sprintf("stop %d", id))
	}
	for round := 0; len(flight) > 0 || sut.sim.Pending() > 0; round++ {
		if round > 10000 {
			t.Fatalf("the network does not drain: %d packets in flight, %d events pending", len(flight), sut.sim.Pending())
		}
		for _, p := range flight {
			deliver(p)
		}
		flight = flight[:0]
		advance(10 * units.Millisecond)
		check(fmt.Sprintf("drain round %d", round))
	}
	for _, p := range slices.Clone(delivered) {
		deliver(p)
	}
	check("late duplicates")
	for id, snd := range ref.senders {
		out.timeouts += int(snd.Stats().Timeouts)
		if !snd.Done() || !sut.senders[id].Done() {
			t.Fatalf("flow %d: done %v after the drain, parent %v", id, sut.senders[id].Done(), snd.Done())
		}
	}
	return out
}

func TestFlowTableMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var tally tableOutcome
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 200+rng.Intn(4000))
		rng.Read(data)
		out := tableAgainstMaps(t, data)
		tally.starts += out.starts
		tally.refusals += out.refusals
		tally.stops += out.stops
		tally.timeouts += out.timeouts
		tally.acksLive += out.acksLive
		tally.acksDone += out.acksDone
		tally.acksUnknown += out.acksUnknown
		tally.strays += out.strays
		tally.tombs += out.tombs
		tally.departs += out.departs
	}
	t.Logf("%+v", tally)
	if tally.refusals < 1000 || tally.stops < 2000 || tally.timeouts < 10000 ||
		tally.acksLive < 2000 || tally.acksDone < 150 || tally.acksUnknown < 200 ||
		tally.strays < 2000 || tally.tombs < 20000 || tally.departs < 10000 {
		t.Errorf("%+v: the scripts miss a case", tally)
	}
}

func FuzzFlowTableMatchesMaps(f *testing.F) {
	// Forty one-segment flows, then the drain: the first slab's flows all
	// retire, it leaves the table, and the late duplicates reach its
	// tombstones and those of the second slab's retired flows.
	var tiny []byte
	for i := 0; i < 40; i++ {
		tiny = append(tiny, 0, byte(i), byte(i/4), byte(i), 2, byte(i*37), 1)
	}
	f.Add(tiny)
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 4; i++ {
		data := make([]byte, 400)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tableAgainstMaps(t, data)
	})
}
