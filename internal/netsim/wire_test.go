package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// sender is the part of Link the order test drives.
type sender interface {
	Send(p *packet.Packet) SendOutcome
}

// perPacketLink is the link as it was: one heap event per packet in flight.
// It is the reference Link's wire FIFO must be indistinguishable from.
type perPacketLink struct {
	s     *sim.Simulator
	delay units.Duration
	dst   Node
}

func (l *perPacketLink) Send(p *packet.Packet) SendOutcome {
	l.s.AfterCall(l.delay, func(a any) { l.dst.Receive(a.(*packet.Packet)) }, p)
	return SendDelivered
}

// hop logs a packet's arrival and forwards it on next, if there is one.
type hop struct {
	s    *sim.Simulator
	id   int
	next sender
	log  *[]arrivalRecord
}

type arrivalRecord struct {
	at   units.Time
	hop  int
	flow packet.FlowID
}

func (h *hop) Receive(p *packet.Packet) {
	*h.log = append(*h.log, arrivalRecord{h.s.Now(), h.id, p.Flow})
	if h.next != nil {
		h.next.Send(p)
	}
}

// runWires sends one seeded schedule of packets over three wires — a→b
// chained behind each other, c beside them, two sharing a delay and one with
// none, on times coarse enough that ties are the rule — and returns every
// arrival in the order it ran.
func runWires(seed int64, newLink func(*sim.Simulator, units.Duration, Node) sender) ([]arrivalRecord, uint64) {
	s := sim.New()
	rng := rand.New(rand.NewSource(seed))
	var log []arrivalRecord
	b := newLink(s, 2*units.Microsecond, &hop{s: s, id: 1, log: &log})
	a := newLink(s, 2*units.Microsecond, &hop{s: s, id: 0, next: b, log: &log})
	c := newLink(s, 0, &hop{s: s, id: 2, log: &log})
	entry := []sender{a, b, c}
	for i := 0; i < 3000; i++ {
		p := &packet.Packet{Flow: packet.FlowID(i)}
		on := entry[rng.Intn(len(entry))]
		s.At(units.Time(rng.Intn(400))*units.Time(units.Microsecond), func() { on.Send(p) })
	}
	s.Run()
	return log, s.Processed()
}

func TestLinkFIFODeliversLikePerPacketEvents(t *testing.T) {
	fifo := func(s *sim.Simulator, d units.Duration, dst Node) sender { return NewLink(s, d, dst) }
	perPacket := func(s *sim.Simulator, d units.Duration, dst Node) sender {
		return &perPacketLink{s: s, delay: d, dst: dst}
	}
	for seed := int64(1); seed <= 20; seed++ {
		got, gotRun := runWires(seed, fifo)
		want, wantRun := runWires(seed, perPacket)
		if len(want) < 3000 {
			t.Fatalf("seed %d: reference delivered only %d arrivals", seed, len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: arrival times or order differ from one event per packet", seed)
		}
		if gotRun != wantRun {
			t.Fatalf("seed %d: %d events processed, %d with one event per packet", seed, gotRun, wantRun)
		}
	}
}

// TestLinkKeepsOnePendingEvent: each packet in flight is one pending event,
// and it waits in the simulator's lane for the link's delay, not on the heap.
func TestLinkKeepsOnePendingEvent(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	l := NewLink(s, units.Millisecond, dst)
	for i := 0; i < 100; i++ { // enough to grow the ring more than once
		l.Send(dataPkt(packet.FlowID(i), 0, 1500))
	}
	if s.Pending() != 100 || s.MaxPending() != 0 {
		t.Fatalf("100 packets on one wire: %d events pending, heap high-water mark %d; want 100 and 0",
			s.Pending(), s.MaxPending())
	}
	s.Run()
	for i, p := range dst.pkts {
		if p.Flow != packet.FlowID(i) {
			t.Fatalf("arrival %d is flow %d: wire reordered", i, p.Flow)
		}
	}
	if len(dst.pkts) != 100 || s.Processed() != 100 {
		t.Fatalf("delivered %d packets in %d events, want 100 in 100", len(dst.pkts), s.Processed())
	}
}

// TestSerializationStaysOffTheHeap: a port's ACK and MTU serialization
// completions wait in the simulator's lanes, as link arrivals do, and only a
// packet of another size puts one on the heap.
func TestSerializationStaysOffTheHeap(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, units.MB, 2, buffer.NewBestEffort(), dst)
	for i := 0; i < 50; i++ {
		p.Enqueue(dataPkt(packet.FlowID(i), i%2, 1500))
		p.Enqueue(dataPkt(packet.FlowID(i), i%2, packet.AckSize))
	}
	s.Run()
	if len(dst.pkts) != 100 || s.MaxPending() != 0 {
		t.Fatalf("100 MTU and ACK packets: %d delivered, heap high-water mark %d; want 100 and 0",
			len(dst.pkts), s.MaxPending())
	}
	sent := s.Now()
	p.Enqueue(dataPkt(100, 0, 700))
	if s.MaxPending() != 1 {
		t.Fatalf("a 700 B packet: heap high-water mark %d, want 1", s.MaxPending())
	}
	s.Run()
	// 700 B at 1 Gbps is 5.6 µs, then 10 µs on the wire.
	if want := sent.Add(15600 * units.Nanosecond); len(dst.pkts) != 101 || dst.at[100] != want {
		t.Fatalf("the 700 B packet: %d delivered, the last at %v; want 101, at %v", len(dst.pkts), dst.at[len(dst.at)-1], want)
	}
}

func TestLinkSetDownMidFlightStillDelivers(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	l := NewLink(s, 10*units.Microsecond, dst)
	us := func(n int) units.Time { return units.Time(n) * units.Time(units.Microsecond) }
	for i := 0; i < 3; i++ {
		p := dataPkt(packet.FlowID(i), 0, 1500)
		s.At(us(i), func() { l.Send(p) })
	}
	// The cut comes with all three on the wire; what is already past the
	// break still arrives, what enters afterwards does not.
	s.At(us(5), func() { l.SetDown(true) })
	s.At(us(6), func() {
		if out := l.Send(dataPkt(3, 0, 1500)); out != SendLost {
			t.Errorf("send into a downed link: outcome %v, want lost", out)
		}
	})
	s.At(us(20), func() { l.SetDown(false) })
	s.At(us(21), func() { l.Send(dataPkt(4, 0, 1500)) })
	s.Run()
	wantFlows := []packet.FlowID{0, 1, 2, 4}
	wantAt := []units.Time{us(10), us(11), us(12), us(31)}
	if len(dst.pkts) != len(wantFlows) {
		t.Fatalf("delivered %d packets, want %d", len(dst.pkts), len(wantFlows))
	}
	for i := range wantFlows {
		if dst.pkts[i].Flow != wantFlows[i] || dst.at[i] != wantAt[i] {
			t.Errorf("arrival %d: flow %d at %v, want flow %d at %v",
				i, dst.pkts[i].Flow, dst.at[i], wantFlows[i], wantAt[i])
		}
	}
	if l.Lost() != 1 {
		t.Errorf("lost = %d, want 1", l.Lost())
	}
}

// TestLinkDeliveringBeforeSetDstPanics: two-phase wiring may leave a link
// without a destination only until the first packet arrives.
func TestLinkDeliveringBeforeSetDstPanics(t *testing.T) {
	s := sim.New()
	l := NewLink(s, units.Microsecond, nil)
	l.Send(dataPkt(1, 0, 1500))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic when a link with no destination delivers")
			}
		}()
		s.Run()
	}()
	dst := &sinkNode{s: s}
	l.SetDst(dst)
	l.Send(dataPkt(2, 0, 1500))
	s.Run()
	if len(dst.pkts) != 1 || dst.pkts[0].Flow != 2 {
		t.Fatalf("after SetDst: delivered %d packets, want flow 2 alone", len(dst.pkts))
	}
}

// consumer ends a delivered packet's life, as a transport endpoint does.
type consumer struct{ n int }

func (c *consumer) Receive(p *packet.Packet) {
	c.n++
	p.Release()
}

// TestEveryDiscardReleasesThePacketOnce drives each place a packet can die
// at a port — admission drop, pool drop, eviction, dequeue drop, a lossy, a
// corrupting and a downed link — with pooled packets in waves. A packet
// released twice panics in the pool; one never released leaves the pool
// short after the port has drained.
func TestEveryDiscardReleasesThePacketOnce(t *testing.T) {
	tcnDrop, err := buffer.NewTCNDrop(20 * units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// A pool drop needs α·Free ≥ TotalLen+size while Reserve fails: with
	// four packets buffered, 1000B of this pool stay free, and α = 8 admits.
	pool, err := buffer.NewSharedPool(4*1500 + 1000)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := buffer.NewDT(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	coin := func() func() float64 {
		rng := rand.New(rand.NewSource(3))
		return rng.Float64
	}
	cases := []struct {
		name    string
		adm     buffer.Admission
		impair  func(l *Link)
		discard func(st PortStats) int64
	}{
		{"admission", buffer.NewBestEffort(), nil,
			func(st PortStats) int64 { return st.Dropped }},
		{"pool", dt, nil,
			func(st PortStats) int64 { return st.PoolDrops }},
		{"evict", buffer.NewBarberQ(), nil,
			func(st PortStats) int64 { return st.Evicted }},
		{"dequeue", tcnDrop, nil,
			func(st PortStats) int64 { return st.DequeueDrops }},
		{"loss", buffer.NewBestEffort(),
			func(l *Link) { l.SetRand(coin()); l.SetLossRate(0.5) },
			func(st PortStats) int64 { return st.LinkLost }},
		{"corrupt", buffer.NewBestEffort(),
			func(l *Link) { l.SetRand(coin()); l.SetCorruptRate(0.5) },
			func(st PortStats) int64 { return st.LinkCorrupted }},
		{"down", buffer.NewBestEffort(),
			func(l *Link) { l.SetDown(true) },
			func(st PortStats) int64 { return st.LinkLost }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			dst := &consumer{}
			link := NewLink(s, units.Microsecond, dst)
			if tc.impair != nil {
				tc.impair(link)
			}
			port, err := NewPort(s, PortConfig{
				Rate: units.Gbps, Buffer: 8 * 1500, Queues: 4,
				Scheduler: sched.EqualDRR(4, 1500), Admission: tc.adm,
				Link: link,
			})
			if err != nil {
				t.Fatal(err)
			}
			var pkts packet.Pool
			offered := 0
			for wave := 0; wave < 4; wave++ {
				// Queue 2 fills the port, then queue 0's burst finds it full.
				for i := 0; i < 16; i++ {
					p := pkts.Get()
					p.Kind, p.Size, p.Class = packet.Data, 1500, 2*(1-i/12)
					port.Enqueue(p)
					offered++
				}
				s.Run()
			}
			st := port.Stats()
			if tc.discard(st) == 0 {
				t.Fatalf("the %s discard was never taken: %+v", tc.name, st)
			}
			gone := st.Dropped + st.Evicted + st.DequeueDrops + st.LinkLost + st.LinkCorrupted
			if int64(dst.n)+gone != int64(offered) {
				t.Fatalf("delivered %d + discarded %d ≠ offered %d", dst.n, gone, offered)
			}
			if pkts.Idle() != pkts.Allocated() {
				t.Fatalf("%d of %d pooled packets came back after the port drained",
					pkts.Idle(), pkts.Allocated())
			}
			if pkts.Allocated() > 16 {
				t.Fatalf("%d packets allocated for waves of 16: the pool is not reusing them", pkts.Allocated())
			}
		})
	}
}

// portPath is bench/'s port driver with packets from a pool: DynaQ over
// SPQ+DRR, 5 queues at 1 Gbps and 85 KB, the Fig 8 star port. 32 packets a
// burst is 8 per DRR queue, 12 KB against a 17 KB threshold: nothing drops,
// so every packet crosses Enqueue → txDone → the wire → a consumer.
type portPath struct {
	s    *sim.Simulator
	port *Port
	pkts packet.Pool
	dst  consumer
}

func newPortPath(tb testing.TB) *portPath {
	pp := &portPath{s: sim.New()}
	adm, err := buffer.NewDynaQ(85*units.KB, []int64{1, 1, 1, 1, 1})
	if err != nil {
		tb.Fatal(err)
	}
	schd, err := sched.NewSPQDRR(1, []units.ByteSize{1500, 1500, 1500, 1500})
	if err != nil {
		tb.Fatal(err)
	}
	pp.port, err = NewPort(pp.s, PortConfig{
		Rate: units.Gbps, Buffer: 85 * units.KB, Queues: 5,
		Scheduler: schd, Admission: adm,
		Link: NewLink(pp.s, units.Microsecond, &pp.dst),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return pp
}

func (pp *portPath) burst() {
	for i := 0; i < 32; i++ {
		p := pp.pkts.Get()
		p.Kind, p.Class, p.Size, p.Payload = packet.Data, 1+i%4, 1500, 1460
		pp.port.Enqueue(p)
	}
	pp.s.Run()
}

// BenchmarkPortPath reports one packet's whole stay at a port; an op is one
// packet.
func BenchmarkPortPath(b *testing.B) {
	pp := newPortPath(b)
	pp.burst() // grow the pool, the queues, the wire and the event free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		pp.burst()
	}
	b.StopTimer()
	if st := pp.port.Stats(); st.Dropped != 0 || int64(pp.dst.n) != st.Enqueued {
		b.Fatalf("delivered %d of %d enqueued, %d dropped", pp.dst.n, st.Enqueued, st.Dropped)
	}
}

func TestPortPathDoesNotAllocate(t *testing.T) {
	pp := newPortPath(t)
	pp.burst()
	if n := testing.AllocsPerRun(100, pp.burst); n != 0 {
		t.Fatalf("%v allocations per 32-packet burst, want 0", n)
	}
}

// TestPortPathAllocatesNothing: once built, a host-NIC port and its link
// take bursts that drive the port's queue and the link's wire deeper than
// they have ever been, and nothing allocates. Queued packets are linked
// through themselves, so a FIFO has no storage of its own to grow. The
// setup gives the pool every packet the deepest burst takes and the
// simulator's delay lane as many events; those grow with the packets in
// flight, not with the queues.
func TestPortPathAllocatesNothing(t *testing.T) {
	const (
		delay = 100 * units.Millisecond // longer than any burst takes to send
		runs  = 5
		step  = 1000 // packets added to each burst
	)
	s := sim.New()
	var pkts packet.Pool
	var dst consumer
	port, err := NewPort(s, PortConfig{
		Rate: 10 * units.Gbps, Buffer: 64 * units.MB, Queues: 1,
		Scheduler: sched.NewSPQ(), Admission: buffer.NewBestEffort(),
		Link: NewLink(s, delay, &dst),
	})
	if err != nil {
		t.Fatal(err)
	}
	deepest := step * (runs + 1) // AllocsPerRun runs once more to warm up
	held := make([]*packet.Packet, deepest)
	for i := range held {
		held[i] = pkts.Get()
	}
	for _, p := range held {
		p.Release()
	}
	lane := s.Lane(delay)
	for range deepest {
		lane.Call(func(any) {}, nil)
	}
	s.Run()

	var queued, wired [runs + 1]int
	call := 0
	burst := func() {
		n := step * (call + 1)
		for range n {
			p := pkts.Get()
			p.Kind, p.Size, p.Payload = packet.Data, 1500, 1460
			port.Enqueue(p)
		}
		queued[call] = port.queues[0].Len() // the first packet found the port idle
		s.RunUntil(s.Now().Add(units.Duration(n) * port.Rate().Transmit(1500)))
		wired[call] = port.Link().wire.Len()
		s.Run()
		call++
	}
	if n := testing.AllocsPerRun(runs, burst); n != 0 {
		t.Errorf("%v allocations per burst, want 0", n)
	}
	for i := range call {
		if n := step * (i + 1); queued[i] != n-1 || wired[i] != n {
			t.Fatalf("burst %d of %d packets: %d queued, %d on the wire; want %d and %d", i, n, queued[i], wired[i], n-1, n)
		}
	}
	if dst.n != step*(runs+1)*(runs+2)/2 || pkts.Idle() != pkts.Allocated() || pkts.Allocated() != deepest {
		t.Fatalf("delivered %d, pool %d idle of %d carved", dst.n, pkts.Idle(), pkts.Allocated())
	}
}
