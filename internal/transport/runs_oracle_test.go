package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/netsim"
	"dynaq/internal/packet"
)

// byteRun is the payload bytes [seq, end) of a flow.
type byteRun struct{ seq, end int64 }

// runStock is a flow table's supply of empty run slices. A receiver holds
// one only while it has out-of-order data, so a network's receivers share
// about as many as they have flows with holes at once, not one per flow ever
// received.
type runStock [][]byteRun

func (st *runStock) take() []byteRun {
	n := len(*st)
	if n == 0 {
		return nil
	}
	runs := (*st)[n-1]
	*st = (*st)[:n-1]
	return runs
}

// sliceReceiver is the receiver as it stood while its out-of-order runs were
// a slice, taken from and given back to its flow table's runStock: onData
// and buffer are that version's bodies verbatim, and runStock above is its
// type verbatim. sliceEndpoint and sliceTable carry only what those bodies
// reach.
type sliceReceiver struct {
	ep      *sliceEndpoint
	rcvNxt  int64
	ooo     []byteRun // buffered out-of-order data: sorted, disjoint, non-touching, above rcvNxt; nil when none
	retired bool      // final, its flow's sender done; see FlowTable.retire
}

type sliceEndpoint struct {
	flows *sliceTable
	ack   func(p *packet.Packet, ack int64)
}

type sliceTable struct{ runs runStock }

func (r *sliceReceiver) onData(p *packet.Packet) {
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
				stock := &r.ep.flows.runs
				*stock = append(*stock, r.ooo)
				r.ooo = nil
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
func (r *sliceReceiver) buffer(seq, end int64) {
	n := len(r.ooo)
	if n == 0 {
		r.ooo = r.ep.flows.runs.take()
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

// appendRuns appends r's buffered runs to buf, lowest first, and fails if
// r.last is not the highest of them.
func (r *Receiver) appendRuns(buf []byteRun) ([]byteRun, error) {
	var top *run
	for n := r.ooo; n != nil; n = n.next {
		buf = append(buf, byteRun{n.seq, n.end})
		top = n
	}
	if top != r.last {
		return buf, fmt.Errorf("last run %p, the list ends at %p", r.last, top)
	}
	return buf, nil
}

// idleRuns counts the runs on a's idle stack.
func (a *runArena) idleRuns() int {
	n := 0
	for r := a.idle; r != nil; r = r.next {
		n++
	}
	return n
}

// runsHosts is how many hosts a run script's flows are received at.
const runsHosts = 3

// runsFlow is one flow of a run script on both sides: its receiver's state
// in the parent's table, and what the script has sent it.
type runsFlow struct {
	id   packet.FlowID
	host int
	rcv  *sliceReceiver
	hi   int64    // the highest byte end delivered
	last [2]int64 // the last segment delivered: seq and length
}

// runsOutcome tallies what a run script exercised.
type runsOutcome struct{ packets, bursts, pulls, merges, retired, tombstoned, peak int }

// runsAgainstSlices plays a script over flows received at runsHosts
// endpoints that share one FlowTable, and over the parent's slice receivers
// sharing one runStock. Its first byte chooses how many flows (1 to 40, so a
// slab of 32 can retire whole). Each step picks a flow and one of: a segment
// somewhere in a window above rcvNxt; one at or below rcvNxt, which pulls;
// the flow's last segment again; one that ends where a buffered run starts
// or starts where one ends; a burst of up to 511 holes, upward, downward or
// interleaved; the retransmission that fills every hole; or a retirement,
// which the table makes when the receiver holds no runs and has every byte
// the script says was sent. Segments are any byte length, so they overlap
// and touch. After each packet the ACK, rcvNxt and the retirement must
// match the parent's; after each step the runs too, and the arena must hold
// exactly the runs the receivers hold plus its idle ones. A drain ends it:
// every hole filled, every flow retired, a late duplicate each.
func runsAgainstSlices(t testing.TB, data []byte) (out runsOutcome) {
	if len(data) == 0 {
		return
	}
	sc := byteScript{data: data[1:]}
	var table FlowTable
	var got, want packet.Packet
	pkts := new(packet.Pool)
	var eps [runsHosts]*Endpoint
	for h := range eps {
		eps[h] = &Endpoint{host: netsim.NewHost(h, nil), pkts: pkts, flows: &table,
			nic: sendFunc(func(p *packet.Packet) { got = p.Detached(); p.Release() })}
	}
	parent := &sliceTable{}
	flows := make([]*runsFlow, 1+int(data[0])%40)
	for i := range flows {
		f := &runsFlow{id: packet.FlowID(i + 1), host: i % runsHosts}
		sep := &sliceEndpoint{flows: parent, ack: func(p *packet.Packet, ack int64) {
			want = packet.Packet{Kind: packet.Ack, Flow: p.Flow, Src: f.host, Dst: p.Src, Ack: ack,
				Size: packet.AckSize, Class: p.Class, Echo: p.ECN == packet.CE}
		}}
		f.rcv = &sliceReceiver{ep: sep}
		flows[i] = f
	}
	live := func(f *runsFlow) *Receiver {
		b, i := table.block(f.id, false)
		if b == nil || b.slab == nil {
			return nil
		}
		return &b.slab.slots[i].rcv
	}
	held := 0          // runs the parent's receivers hold
	var runs []byteRun // the runs of the receiver checked last
	// check compares f's last ACK, its rcvNxt and retirement, and with
	// withRuns set its runs.
	check := func(f *runsFlow, seq, end int64, withRuns bool) {
		if got != want {
			t.Fatalf("flow %d, [%d, %d): ACK %+v, parent %+v", f.id, seq, end, got, want)
		}
		r := live(f)
		if r == nil {
			if !f.rcv.retired {
				t.Fatalf("flow %d, [%d, %d): tombstoned, parent live", f.id, seq, end)
			}
			return
		}
		runs = runs[:0]
		if withRuns {
			var err error
			if runs, err = r.appendRuns(runs); err != nil {
				t.Fatalf("flow %d, [%d, %d): %v", f.id, seq, end, err)
			}
		}
		if r.rcvNxt != f.rcv.rcvNxt || r.retired != f.rcv.retired || withRuns && !slices.Equal(runs, f.rcv.ooo) {
			t.Fatalf("flow %d, [%d, %d): rcvNxt %d, retired %v, runs %v; parent %d, %v, %v",
				f.id, seq, end, r.rcvNxt, r.retired, runs, f.rcv.rcvNxt, f.rcv.retired, f.rcv.ooo)
		}
	}
	// play delivers [seq, seq+n) of flow f, in class mark%3 with ECN
	// codepoint mark/3, and checks the runs too if withRuns is set.
	play := func(f *runsFlow, seq, n int64, mark int, withRuns bool) {
		if seq < 0 || n <= 0 {
			return
		}
		p := &packet.Packet{Kind: packet.Data, Flow: f.id, Src: runsHosts, Dst: f.host, Seq: seq,
			Payload: int32(n), Size: 64, Class: mark % 3, ECN: packet.ECN(mark / 3)}
		q := *p
		got, want = packet.Packet{}, packet.Packet{}
		table.deliver(eps[f.host], p)
		held -= len(f.rcv.ooo)
		if f.rcv.retired {
			f.rcv.ep.ack(&q, f.rcv.rcvNxt)
		} else {
			f.rcv.onData(&q)
		}
		held += len(f.rcv.ooo)
		out.packets++
		f.hi = max(f.hi, seq+n)
		f.last = [2]int64{seq, n}
		check(f, seq, seq+n, withRuns)
	}
	deliver := func(f *runsFlow, seq, n int64, mark int) { play(f, seq, n, mark, true) }
	// retire completes f's sender having sent sent bytes. The table retires
	// a receiver that holds no runs and has every byte sent.
	retire := func(f *runsFlow, sent int64) {
		table.senders++
		table.retire(&Sender{flow: f.id, dst: f.host, nxt: sent})
		f.rcv.retired = f.rcv.ooo == nil && f.rcv.rcvNxt >= sent
		if r := live(f); r != nil && r.retired != f.rcv.retired {
			t.Fatalf("flow %d: retired %v, parent %v (rcvNxt %d, sent %d, runs %v)", f.id, r.retired, f.rcv.retired, r.rcvNxt, sent, f.rcv.ooo)
		}
		if f.rcv.retired {
			out.retired++
		}
	}
	for sc.pos < len(sc.data) {
		f := flows[sc.n(len(flows))]
		nxt := f.rcv.rcvNxt
		switch sc.n(12) {
		case 0, 1, 2: // somewhere in a window above the hole
			deliver(f, nxt+1+int64(sc.n(256))*int64(1+sc.n(64)), int64(1+sc.n(256)*(1+sc.n(8))), sc.n(9))
		case 3: // at or below rcvNxt: in order, or a duplicate reaching past it
			deliver(f, nxt-min(nxt, int64(sc.n(256)*sc.n(16))), int64(1+sc.n(256)*(1+sc.n(16))), sc.n(9))
			out.pulls++
		case 4: // the last segment again
			deliver(f, f.last[0], f.last[1], sc.n(9))
		case 5, 6: // touching a buffered run from below or from above
			if k := len(f.rcv.ooo); k > 0 {
				br := f.rcv.ooo[sc.n(k)]
				if sc.n(2) == 0 {
					seq := max(nxt+1, br.seq-int64(1+sc.n(200)))
					deliver(f, seq, br.seq-seq, sc.n(9))
				} else {
					deliver(f, br.end, int64(1+sc.n(200)), sc.n(9))
				}
				out.merges++
			}
		case 7: // a burst of holes: every other stride of size bytes
			k, size := 1+sc.n(256)+sc.n(256), int64(1+sc.n(64))
			stride, base := size+int64(1+sc.n(3)), nxt+1+int64(sc.n(64))
			order, mark := sc.n(3), sc.n(9)
			for i := 0; i < k; i++ {
				j := i
				switch order {
				case 1: // downward
					j = k - 1 - i
				case 2: // evens up, then odds up
					j = 2 * i
					if j >= k {
						j -= k - (k+1)%2
					}
				}
				play(f, base+int64(j)*stride, size, mark, false)
			}
			check(f, base, base+int64(k)*stride, true) // the burst's runs, once
			out.bursts++
		case 8: // the retransmission that fills every hole
			if f.hi > nxt {
				deliver(f, nxt, f.hi-nxt, sc.n(9))
				out.pulls++
			}
		default: // retirement, as when the flow's sender completes
			if r := live(f); r != nil && r.ep != nil && !f.rcv.retired {
				// Having sent every byte delivered, one more, or only
				// those below the hole: runs alone must then refuse.
				retire(f, []int64{f.hi, f.hi + 1, nxt}[sc.n(3)])
			}
		}
		if a := &table.runs; a.carved-a.idleRuns() != held {
			t.Fatalf("the arena has %d runs out (%d carved, %d idle), the receivers hold %d", a.carved-a.idleRuns(), a.carved, a.idleRuns(), held)
		}
		out.peak = max(out.peak, held)
	}
	// The retransmissions that fill every hole, each flow's sender
	// completing, and a late duplicate answered by a live receiver or a
	// tombstone.
	for _, f := range flows {
		if !f.rcv.retired {
			deliver(f, f.rcv.rcvNxt, f.hi-f.rcv.rcvNxt+1, 0)
			retire(f, f.hi)
		}
	}
	for _, f := range flows {
		deliver(f, f.last[0], f.last[1], 1)
	}
	if a := &table.runs; a.idleRuns() != a.carved {
		t.Fatalf("every flow retired, and %d runs of %d are idle", a.idleRuns(), a.carved)
	}
	for _, b := range table.blocks {
		if b.acks != nil {
			out.tombstoned++
		}
	}
	return out
}

func TestRunArenaMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var total runsOutcome
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 1+rng.Intn(1200))
		rng.Read(data)
		if trial%4 == 0 {
			data[0] = byte(31 + rng.Intn(2)) // 32 or 33 flows: whole slabs retire
		}
		out := runsAgainstSlices(t, data)
		total.packets += out.packets
		total.bursts += out.bursts
		total.pulls += out.pulls
		total.merges += out.merges
		total.retired += out.retired
		total.tombstoned += out.tombstoned
		total.peak = max(total.peak, out.peak)
	}
	t.Logf("%+v", total)
	if total.bursts < 2000 || total.pulls < 4000 || total.merges < 3000 || total.retired < 8000 || total.tombstoned < 100 || total.peak < 300 {
		t.Fatalf("%+v: the scripts miss a case", total)
	}
}

func FuzzRunArenaMatchesSlices(f *testing.F) {
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 4; i++ {
		data := make([]byte, 400)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runsAgainstSlices(t, data)
	})
}

// TestRunsReuseTheArena: a receiver that has taken a burst of 500 holes and
// had them filled takes the same burst again without allocating, the runs
// coming back from the arena's idle stack.
func TestRunsReuseTheArena(t *testing.T) {
	const holes = 500
	r := newTestReceiver(1, func(p *packet.Packet) { p.Release() }, new(FlowTable))
	var seq int64
	burst := func() {
		base := seq
		for i := int64(0); i < holes; i++ {
			p := packet.Packet{Kind: packet.Data, Flow: 1, Dst: 1, Seq: base + 100 + 200*i, Payload: 100, Size: 140}
			r.onData(&p)
		}
		if r.last == nil || r.last.end != base+200*holes {
			t.Fatalf("burst did not buffer %d runs", holes)
		}
		fill := packet.Packet{Kind: packet.Data, Flow: 1, Dst: 1, Seq: base, Payload: 200 * holes, Size: 140}
		r.onData(&fill)
		if seq = base + 200*holes; r.rcvNxt != seq || r.ooo != nil {
			t.Fatalf("rcvNxt %d with runs left, want %d", r.rcvNxt, seq)
		}
	}
	burst()
	if n := testing.AllocsPerRun(10, burst); n != 0 {
		t.Fatalf("a second burst of %d holes allocates %.1f times, want 0", holes, n)
	}
	if a := &r.ep.flows.runs; a.idleRuns() != a.carved || a.carved < holes {
		t.Fatalf("%d runs idle of %d carved", a.idleRuns(), a.carved)
	}
}
