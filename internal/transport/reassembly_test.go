package transport

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// refReceiver is the receiver as it stood with one map entry per buffered
// out-of-order segment: onData and sendAck are that version's bodies
// verbatim. Senders emit only MSS-aligned segments (TestSenderSegmentsAreAligned),
// and on those the runs must acknowledge exactly what this map did.
type refReceiver struct {
	pkts     *packet.Pool
	me       int
	emit     func(*packet.Packet)
	flow     packet.FlowID
	rcvNxt   int64
	ooo      map[int64]int64 // seq → end of buffered out-of-order segments
	rcvd     units.ByteSize
	acksSent int64
}

func (r *refReceiver) onData(p *packet.Packet) {
	end := p.Seq + int64(p.Payload)
	if p.Seq <= r.rcvNxt {
		if end > r.rcvNxt {
			r.rcvNxt = end
		}
		// Pull any now-contiguous out-of-order segments.
		for {
			e, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt = e
		}
	} else if e, ok := r.ooo[p.Seq]; !ok || end > e {
		r.ooo[p.Seq] = end
	}
	r.rcvd += units.ByteSize(p.Payload)
	r.sendAck(p.Src, p.Class, p.ECN == packet.CE)
}

func (r *refReceiver) sendAck(peer, class int, echo bool) {
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

// byteScript hands out a program's decisions one byte each; past its end
// every decision is 0.
type byteScript struct {
	data []byte
	pos  int
}

func (sc *byteScript) n(k int) int {
	if sc.pos >= len(sc.data) {
		return 0
	}
	b := sc.data[sc.pos]
	sc.pos++
	return int(b) % k
}

// wantRuns is the map's buffered bytes as the runs must hold them: sorted,
// merged where they overlap or touch.
func wantRuns(ooo map[int64]int64) []byteRun {
	var runs []byteRun
	for seq, end := range ooo {
		runs = append(runs, byteRun{seq, end})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].seq < runs[j].seq })
	var merged []byteRun
	for _, r := range runs {
		if n := len(merged); n > 0 && r.seq <= merged[n-1].end {
			merged[n-1].end = max(merged[n-1].end, r.end)
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// reassemblyFlow is one flow of a reassembly program: the Receiver under
// test, the map receiver beside it, and the flow's shape.
type reassemblyFlow struct {
	rcv             *Receiver
	ref             *refReceiver
	got, want       packet.Packet // the last ACK each emitted
	flow            packet.FlowID
	mss, segs, size int64
	last            int64 // the segment delivered last
}

func newReassemblyFlow(sc *byteScript, flows *FlowTable, flow packet.FlowID) *reassemblyFlow {
	f := &reassemblyFlow{flow: flow, mss: []int64{int64(DefaultMSS), int64(JumboMSS)}[sc.n(2)]}
	f.segs = int64(1 + sc.n(96))
	f.size = f.segs * f.mss
	if sc.n(2) == 1 { // a short tail segment
		f.size -= f.mss - int64(1+sc.n(250))*f.mss/251
	}
	f.rcv = newTestReceiver(1, func(p *packet.Packet) { f.got = p.Detached(); p.Release() }, flows)
	f.ref = &refReceiver{pkts: &packet.Pool{}, me: 1, flow: flow, ooo: make(map[int64]int64),
		emit: func(p *packet.Packet) { f.want = p.Detached(); p.Release() }}
	return f
}

// deliver hands segment k, [k·MSS, min((k+1)·MSS, size)), to both receivers
// and fails unless they then agree on the ACK, on rcvNxt and on the bytes
// buffered above it.
func (f *reassemblyFlow) deliver(t testing.TB, k int64, class int, ecn packet.ECN) {
	seq := k * f.mss
	payload := units.ByteSize(min(seq+f.mss, f.size) - seq)
	mk := func() *packet.Packet {
		return &packet.Packet{Kind: packet.Data, Flow: f.flow, Src: 0, Dst: 1, Seq: seq,
			Payload: int32(payload), Size: payload + HeaderSize, Class: class, ECN: ecn}
	}
	f.rcv.onData(mk())
	f.ref.onData(mk())
	f.last = k
	if f.got != f.want {
		t.Fatalf("flow %d, [%d, %d): ACK %+v, map's %+v", f.flow, seq, seq+int64(payload), f.got, f.want)
	}
	if f.rcv.rcvNxt != f.ref.rcvNxt {
		t.Fatalf("flow %d, [%d, %d): rcvNxt %d, map's %d", f.flow, seq, seq+int64(payload), f.rcv.rcvNxt, f.ref.rcvNxt)
	}
	runs, err := f.rcv.appendRuns(nil)
	if err != nil {
		t.Fatalf("flow %d, [%d, %d): %v", f.flow, seq, seq+int64(payload), err)
	}
	if w := wantRuns(f.ref.ooo); !slices.Equal(runs, w) {
		t.Fatalf("flow %d, [%d, %d): runs %v, map's bytes %v (rcvNxt %d)", f.flow, seq, seq+int64(payload), runs, w, f.rcv.rcvNxt)
	}
	if len(runs) > 0 && runs[0].seq <= f.rcv.rcvNxt {
		t.Fatalf("flow %d: run %v at or below rcvNxt %d", f.flow, runs[0], f.rcv.rcvNxt)
	}
}

// reassemblyAgainstMap plays two MSS-aligned segment streams, decoded from
// data and interleaved, into Receivers that share one run arena and into a
// refReceiver each. A stream is what a lossy, reordering network makes of a
// sender: segments up to a window past the next expected one (drops are the
// ones never picked), old duplicates, repeats, a short tail segment on some
// flows, MSS 1460 or 8960. It fails at the first packet after which a
// Receiver and its map disagree, and returns the packets played.
func reassemblyAgainstMap(t testing.TB, data []byte) int {
	sc := byteScript{data: data}
	var table FlowTable
	flows := []*reassemblyFlow{newReassemblyFlow(&sc, &table, 1), newReassemblyFlow(&sc, &table, 2)}
	played := 0
	for sc.pos < len(sc.data) {
		f := flows[sc.n(2)]
		base := f.ref.rcvNxt / f.mss
		k := base
		switch sc.n(8) {
		case 0, 1, 2, 3: // anywhere in a window past the hole
			k = base + int64(sc.n(24))
		case 4: // an old duplicate
			if base > 0 {
				k = int64(sc.n(int(base)))
			}
		case 5: // the same segment again
			k = f.last
		}
		f.deliver(t, min(k, f.segs-1), sc.n(3), packet.ECN(sc.n(3)))
		played++
	}
	// The retransmissions that fill the holes, in order.
	for _, f := range flows {
		for f.ref.rcvNxt < f.size {
			f.deliver(t, f.ref.rcvNxt/f.mss, 0, packet.NotECT)
			played++
		}
		if f.rcv.rcvNxt != f.size || f.rcv.ooo != nil {
			t.Fatalf("flow %d of %d bytes ends with rcvNxt %d and runs left: %v", f.flow, f.size, f.rcv.rcvNxt, f.rcv.ooo != nil)
		}
	}
	return played
}

func TestReassemblyMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	played := 0
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+rng.Intn(600))
		rng.Read(data)
		played += reassemblyAgainstMap(t, data)
	}
	if played < 150000 {
		t.Fatalf("only %d packets over 2000 streams: the streams are not running", played)
	}
}

func FuzzReassemblyMatchesMap(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reassemblyAgainstMap(t, data)
	})
}

// TestRunsPullWhatTheMapStrands pins the one place the runs and the map part,
// on unaligned data no sender emits: an in-order segment that ends inside or
// past buffered data. The map pulls only a segment that starts exactly at
// rcvNxt, so [150, 250) and [300, 400) stay buffered forever; the runs
// deliver every byte the receiver holds contiguously, as cumulative
// reassembly should.
func TestRunsPullWhatTheMapStrands(t *testing.T) {
	var acks, refAcks []int64
	rcv := newTestReceiver(1, func(p *packet.Packet) { acks = append(acks, p.Ack) }, new(FlowTable))
	ref := &refReceiver{pkts: &packet.Pool{}, me: 1, flow: 9, ooo: make(map[int64]int64),
		emit: func(p *packet.Packet) { refAcks = append(refAcks, p.Ack) }}
	for _, s := range []struct{ seq, n int64 }{{150, 100}, {300, 100}, {0, 320}} {
		p := packet.Packet{Kind: packet.Data, Flow: 9, Dst: 1, Seq: s.seq, Payload: int32(s.n), Size: units.ByteSize(s.n) + HeaderSize}
		q := p
		rcv.onData(&p)
		ref.onData(&q)
	}
	if want := []int64{0, 0, 320}; !slices.Equal(refAcks, want) {
		t.Fatalf("map ACKs %v, want %v", refAcks, want)
	}
	if want := []int64{0, 0, 400}; !slices.Equal(acks, want) {
		t.Fatalf("runs ACK %v, want %v", acks, want)
	}
	if runs, _ := rcv.appendRuns(nil); runs != nil {
		t.Fatalf("runs %v left above rcvNxt %d", runs, rcv.rcvNxt)
	}
}

// TestSenderSegmentsAreAligned is the precondition the runs rest on: whatever
// the network does to a flow — loss both ways, reordering, timeouts, fast
// recovery, Stop — every data packet its sender emits is a whole segment
// [k·MSS, min((k+1)·MSS, size)), where size is the flow's length at that
// moment.
func TestSenderSegmentsAreAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var sent, timeouts, recoveries, stops int64
	for trial := 0; trial < 300; trial++ {
		s := sim.New()
		mss := []units.ByteSize{DefaultMSS, JumboMSS}[rng.Intn(2)]
		size := units.ByteSize(1 + rng.Int63n(int64(80*mss)))
		if rng.Intn(4) == 0 {
			size = 0 // unbounded until Stop
		}
		loss := 0.01 + 0.25*rng.Float64()
		hop := func() units.Duration { return units.Duration(20+rng.Intn(40)) * units.Microsecond }
		var snd *Sender
		var rcv *Receiver
		toRcv := func(p *packet.Packet) {
			if m := int64(mss); p.Seq%m != 0 || int64(p.Payload) != min(m, snd.size-p.Seq) {
				t.Fatalf("trial %d: segment [%d, %d) with MSS %d and flow size %d", trial, p.Seq, p.Seq+int64(p.Payload), mss, snd.size)
			}
			sent++
			d := *p
			p.Release()
			if rng.Float64() < loss {
				return
			}
			s.After(hop(), func() { rcv.onData(&d) })
		}
		toSnd := func(p *packet.Packet) {
			a := *p
			p.Release()
			if rng.Float64() < loss {
				return
			}
			s.After(hop(), func() { snd.onAck(&a) })
		}
		var err error
		snd, err = newSender(s, &packet.Pool{}, 0, toRcv, FlowConfig{Flow: 1, Dst: 1, Size: size, MSS: mss, MinRTO: units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		rcv = newTestReceiver(1, toSnd, new(FlowTable))
		if size == 0 || rng.Intn(4) == 0 {
			s.At(units.Time(rng.Intn(20))*units.Time(units.Millisecond), snd.Stop)
			stops++
		}
		snd.start()
		s.RunUntil(units.Time(10 * units.Minute))
		// A Stop right after a timeout's go-back-N takes the flow's length
		// from the rewound nxt, below bytes already delivered.
		if !snd.Done() || rcv.Received() < units.ByteSize(snd.size) {
			t.Fatalf("trial %d: done %v, %d of %d bytes delivered", trial, snd.Done(), rcv.Received(), snd.size)
		}
		st := snd.Stats()
		timeouts += st.Timeouts
		recoveries += st.FastRecovers
	}
	t.Logf("%d segments, %d timeouts, %d fast recoveries, %d stopped flows", sent, timeouts, recoveries, stops)
	if timeouts == 0 || recoveries == 0 || stops == 0 {
		t.Fatalf("%d timeouts, %d fast recoveries, %d stops: the trials do not reach every path", timeouts, recoveries, stops)
	}
}
