package netsim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// sinkNode collects delivered packets with timestamps.
type sinkNode struct {
	s    *sim.Simulator
	pkts []*packet.Packet
	at   []units.Time
}

func (n *sinkNode) Receive(p *packet.Packet) {
	n.pkts = append(n.pkts, p)
	n.at = append(n.at, n.s.Now())
}

func newTestPort(t *testing.T, s *sim.Simulator, rate units.Rate, buf units.ByteSize,
	queues int, adm buffer.Admission, dst Node) *Port {
	t.Helper()
	p, err := NewPort(s, PortConfig{
		Rate:      rate,
		Buffer:    buf,
		Queues:    queues,
		Scheduler: sched.EqualDRR(queues, 1500),
		Admission: adm,
		Link:      NewLink(s, 10*units.Microsecond, dst),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func dataPkt(flow packet.FlowID, class int, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Flow: flow, Size: size, Class: class, ECN: packet.ECT}
}

func TestPortConfigValidation(t *testing.T) {
	s := sim.New()
	link := NewLink(s, 0, &sinkNode{s: s})
	base := PortConfig{
		Rate: units.Gbps, Buffer: units.KB, Queues: 1,
		Scheduler: sched.NewSPQ(), Admission: buffer.NewBestEffort(), Link: link,
	}
	bad := []func(c *PortConfig){
		func(c *PortConfig) { c.Rate = 0 },
		func(c *PortConfig) { c.Buffer = 0 },
		func(c *PortConfig) { c.Queues = 0 },
		func(c *PortConfig) { c.Scheduler = nil },
		func(c *PortConfig) { c.Admission = nil },
		func(c *PortConfig) { c.Link = nil },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewPort(s, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewPort(s, base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	wide := base
	wide.Queues = sched.MaxQueues + 1
	if _, err := NewPort(s, wide); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("65 queues: error %v, want one naming the limit of 64", err)
	}
}

func TestPortSerializationTiming(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, buffer.NewBestEffort(), dst)
	p.Enqueue(dataPkt(1, 0, 1500))
	s.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	// 1500B at 1Gbps = 12µs serialization + 10µs propagation.
	if want := units.Time(22 * units.Microsecond); dst.at[0] != want {
		t.Fatalf("delivered at %v, want %v", dst.at[0], want)
	}
}

func TestPortBackToBackPackets(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, buffer.NewBestEffort(), dst)
	for i := 0; i < 5; i++ {
		p.Enqueue(dataPkt(1, 0, 1500))
	}
	s.Run()
	if len(dst.pkts) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(dst.pkts))
	}
	// Deliveries spaced exactly one serialization time apart.
	for i := 1; i < 5; i++ {
		if gap := dst.at[i].Sub(dst.at[i-1]); gap != 12*units.Microsecond {
			t.Fatalf("gap %d = %v, want 12µs", i, gap)
		}
	}
	st := p.Stats()
	if st.TxPackets != 5 || st.TxBytes != 7500 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPortDropsWhenAdmissionRejects(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 3000, 2, buffer.NewBestEffort(), dst)
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1, 1, 1500))
	}
	// Buffer 3000B: the first packet is popped into the transmitter at
	// arrival time (it no longer occupies buffer while serializing), so
	// packets 2 and 3 fit and packet 4 drops.
	s.Run()
	st := p.Stats()
	if st.Enqueued != 3 || st.Dropped != 1 {
		t.Fatalf("enqueued=%d dropped=%d, want 3/1", st.Enqueued, st.Dropped)
	}
	if p.QueueDrops(1) != 1 {
		t.Fatalf("queue 1 drops = %d", p.QueueDrops(1))
	}
}

func TestPortClampsInvalidClass(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 2, buffer.NewBestEffort(), dst)
	p.Enqueue(dataPkt(1, 7, 1500))  // out of range high
	p.Enqueue(dataPkt(1, -1, 1500)) // negative
	s.Run()
	if got := p.QueueTxBytes(1); got != 3000 {
		t.Fatalf("clamped queue tx = %d, want 3000", got)
	}
}

func TestPortEnqueueMarking(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	pq, err := buffer.NewPerQueueECN(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, pq, dst)
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1, 0, 1500))
	}
	s.Run()
	if p.Stats().Marked == 0 {
		t.Fatal("no packets marked despite threshold crossing")
	}
	var ce int
	for _, pk := range dst.pkts {
		if pk.Marked() {
			ce++
		}
	}
	if int64(ce) != p.Stats().Marked {
		t.Fatalf("delivered CE = %d, stats.Marked = %d", ce, p.Stats().Marked)
	}
}

func TestPortTCNDequeueMarking(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	tcn, err := buffer.NewTCN(20 * units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, tcn, dst)
	// Packet 1 dequeues immediately (sojourn 0); packets 3+ wait more than
	// 20µs (12µs serialization each ahead of them).
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1, 0, 1500))
	}
	s.Run()
	if dst.pkts[0].Marked() {
		t.Fatal("first packet had no sojourn; must not be marked")
	}
	if !dst.pkts[3].Marked() {
		t.Fatal("deep packet exceeded sojourn threshold; must be marked")
	}
}

func TestPortTCNDropIdlesLink(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	td, err := buffer.NewTCNDrop(20 * units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, td, dst)
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1, 0, 1500))
	}
	s.Run()
	st := p.Stats()
	if st.DequeueDrops == 0 {
		t.Fatal("expected dequeue drops")
	}
	if int64(len(dst.pkts))+st.DequeueDrops != 4 {
		t.Fatalf("delivered %d + dequeue-dropped %d ≠ 4", len(dst.pkts), st.DequeueDrops)
	}
	// Packets 1-2 (sojourn 0µs, 12µs) transmit; packets 3-4 (24µs, 36µs)
	// drop at dequeue, each wasting a full serialization slot — the clock
	// must run through all four slots even though only two were sent.
	if want := units.Time(4 * 12 * units.Microsecond); s.Now() != want {
		t.Fatalf("final clock = %v, want %v (idle slots preserved)", s.Now(), want)
	}
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered = %d, want 2", len(dst.pkts))
	}
}

func TestPortObserverSeesEveryTransition(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, buffer.NewBestEffort(), dst)
	var samples int
	p.Observe(portObserverFunc(func(now units.Time, pp *Port) { samples++ }))
	for i := 0; i < 3; i++ {
		p.Enqueue(dataPkt(1, 0, 1500))
	}
	s.Run()
	// 3 enqueues + 3 dequeues.
	if samples != 6 {
		t.Fatalf("observer samples = %d, want 6", samples)
	}
}

type portObserverFunc func(now units.Time, p *Port)

func (f portObserverFunc) ObservePort(now units.Time, p *Port) { f(now, p) }

// TestPortBacklogWordTracksQueues: bit i of the backlog word a port hands
// its scheduler is set exactly while queue i holds a packet, after every
// enqueue, eviction and dequeue.
func TestPortBacklogWordTracksQueues(t *testing.T) {
	s := sim.New()
	p := newTestPort(t, s, units.Gbps, 16*units.KB, 6, buffer.NewBarberQ(), &consumer{})
	checks := 0
	check := func(after string) {
		checks++
		for i := range p.queues {
			if got, want := p.backlog&(1<<i) != 0, p.queues[i].Len() > 0; got != want {
				t.Fatalf("after %s at %v: backlog bit %d is %v, queue %d holds %d packets",
					after, s.Now(), i, got, i, p.queues[i].Len())
			}
		}
	}
	// The observer runs after every enqueue, drop and dequeue; an eviction
	// reaches only the hook.
	p.Observe(portObserverFunc(func(units.Time, *Port) { check("an enqueue, drop or dequeue") }))
	p.AddEventHook(func(ev PortEvent) {
		if ev.Kind == EvEvict {
			check("an eviction")
		}
	})
	rng := rand.New(rand.NewSource(11))
	for wave := 0; wave < 200; wave++ {
		for n := rng.Intn(12); n > 0; n-- {
			p.Enqueue(dataPkt(packet.FlowID(wave), rng.Intn(6), units.ByteSize(40+rng.Intn(8960))))
		}
		s.RunUntil(s.Now().Add(units.Duration(rng.Intn(150)) * units.Microsecond))
	}
	s.Run()
	st := p.Stats()
	if st.Evicted == 0 || st.Dropped == 0 || st.TxPackets == 0 || p.backlog != 0 {
		t.Fatalf("after %d checks: %+v, backlog %b: a case was never taken or the port did not drain", checks, st, p.backlog)
	}
}

func TestSwitchRoutesByFunction(t *testing.T) {
	s := sim.New()
	d0, d1 := &sinkNode{s: s}, &sinkNode{s: s}
	p0 := newTestPort(t, s, units.Gbps, 100*units.KB, 1, buffer.NewBestEffort(), d0)
	p1 := newTestPort(t, s, units.Gbps, 100*units.KB, 1, buffer.NewBestEffort(), d1)
	sw, err := NewSwitch("sw", []*Port{p0, p1}, func(p *packet.Packet) int { return p.Dst })
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name() != "sw" || sw.NumPorts() != 2 {
		t.Fatalf("switch metadata wrong: %q %d", sw.Name(), sw.NumPorts())
	}
	pk := dataPkt(1, 0, 1500)
	pk.Dst = 1
	sw.Receive(pk)
	s.Run()
	if len(d0.pkts) != 0 || len(d1.pkts) != 1 {
		t.Fatalf("routing failed: d0=%d d1=%d", len(d0.pkts), len(d1.pkts))
	}
}

func TestSwitchValidation(t *testing.T) {
	if _, err := NewSwitch("x", nil, func(*packet.Packet) int { return 0 }); err == nil {
		t.Error("portless switch should fail")
	}
	s := sim.New()
	p := newTestPort(t, s, units.Gbps, units.KB, 1, buffer.NewBestEffort(), &sinkNode{s: s})
	if _, err := NewSwitch("x", []*Port{p}, nil); err == nil {
		t.Error("routeless switch should fail")
	}
}

func TestSwitchPanicsOnBadRoute(t *testing.T) {
	s := sim.New()
	p := newTestPort(t, s, units.Gbps, units.KB, 1, buffer.NewBestEffort(), &sinkNode{s: s})
	sw, err := NewSwitch("x", []*Port{p}, func(*packet.Packet) int { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on out-of-range route")
		}
	}()
	sw.Receive(dataPkt(1, 0, 100))
}

func TestHostPanicsWithoutHandler(t *testing.T) {
	h := NewHost(0, nil)
	defer func() {
		if recover() == nil {
			t.Error("want panic on handlerless receive")
		}
	}()
	h.Receive(dataPkt(1, 0, 100))
}

func TestLinkDelay(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	l := NewLink(s, 125*units.Microsecond, dst)
	l.Send(dataPkt(1, 0, 1500))
	s.Run()
	if dst.at[0] != units.Time(125*units.Microsecond) {
		t.Fatalf("delivered at %v", dst.at[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on negative delay")
		}
	}()
	NewLink(s, -1, dst)
}

func TestPortAndHostAccessors(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 100*units.KB, 1, buffer.NewBestEffort(), dst)
	if p.Rate() != units.Gbps {
		t.Fatalf("Rate = %v", p.Rate())
	}
	h := NewHost(3, nil)
	if h.ID() != 3 || h.Egress() != nil {
		t.Fatal("host metadata wrong")
	}
	h.SetEgress(p)
	if h.Egress() != p {
		t.Fatal("SetEgress ignored")
	}
	got := &sinkNode{s: s}
	h.SetHandler(got)
	h.Receive(dataPkt(1, 0, 100))
	if len(got.pkts) != 1 {
		t.Fatal("handler not invoked")
	}
	h.Send(dataPkt(1, 0, 1500))
	s.Run()
	if len(dst.pkts) != 1 {
		t.Fatal("Send did not reach the egress link")
	}
	sw, err := NewSwitch("sw", []*Port{p}, func(*packet.Packet) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if sw.Port(0) != p {
		t.Fatal("Port accessor wrong")
	}
}

func TestPortEventHookEmissions(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, 3000, 1, buffer.NewBestEffort(), dst)
	var kinds []PortEventKind
	p.AddEventHook(func(ev PortEvent) { kinds = append(kinds, ev.Kind) })
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1, 0, 1500))
	}
	s.Run()
	var enq, drop, tx int
	for _, k := range kinds {
		switch k {
		case EvEnqueue:
			enq++
		case EvDrop:
			drop++
		case EvTransmit:
			tx++
		}
	}
	if enq != 3 || drop != 1 || tx != 3 {
		t.Fatalf("events enq=%d drop=%d tx=%d, want 3/1/3", enq, drop, tx)
	}
}

func TestLinkLossAndCorruptionDeterministic(t *testing.T) {
	run := func(seed int64) (lost, corrupted, delivered int64) {
		s := sim.New()
		dst := &sinkNode{s: s}
		p := newTestPort(t, s, units.Gbps, units.MB, 1, buffer.NewBestEffort(), dst)
		rng := rand.New(rand.NewSource(seed))
		p.Link().SetRand(rng.Float64)
		p.Link().SetLossRate(0.2)
		p.Link().SetCorruptRate(0.1)
		for i := 0; i < 400; i++ {
			p.Enqueue(dataPkt(packet.FlowID(i), 0, 1500))
		}
		s.Run()
		return p.Link().Lost(), p.Link().Corrupted(), int64(len(dst.pkts))
	}
	lost, corrupted, delivered := run(7)
	if lost == 0 || corrupted == 0 {
		t.Fatalf("lost = %d, corrupted = %d; impairments had no effect", lost, corrupted)
	}
	if lost+corrupted+delivered != 400 {
		t.Fatalf("lost %d + corrupted %d + delivered %d != 400", lost, corrupted, delivered)
	}
	lost2, corrupted2, delivered2 := run(7)
	if lost != lost2 || corrupted != corrupted2 || delivered != delivered2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)",
			lost, corrupted, delivered, lost2, corrupted2, delivered2)
	}
	if l3, _, _ := run(8); l3 == lost {
		// Different seeds should (overwhelmingly) draw different loss counts;
		// equality would suggest the seed is ignored.
		t.Logf("seeds 7 and 8 lost the same count %d (unlikely but possible)", l3)
	}
}

func TestLinkUsableDetectionDelay(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 0, &sinkNode{s: s})
	if !l.Usable(units.Millisecond) {
		t.Fatal("healthy link not usable")
	}
	s.At(units.Time(units.Millisecond), func() { l.SetDown(true) })
	s.At(units.Time(1500*units.Microsecond), func() {
		if !l.Usable(units.Millisecond) {
			t.Error("outage detected before the detection delay elapsed")
		}
		if l.Usable(100 * units.Microsecond) {
			t.Error("outage not detected after the detection delay elapsed")
		}
	})
	s.At(units.Time(3*units.Millisecond), func() {
		if l.Usable(units.Millisecond) {
			t.Error("outage still undetected past the delay")
		}
		l.SetDown(false)
		if !l.Usable(units.Millisecond) {
			t.Error("healed link not immediately usable")
		}
	})
	s.Run()
	if l.DownSince() != units.Time(units.Millisecond) {
		t.Fatalf("DownSince = %v, want 1ms", l.DownSince())
	}
}

func TestPortCountsMisclassifiedPackets(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, units.MB, 4, buffer.NewBestEffort(), dst)
	var misclassEvents int
	p.AddEventHook(func(ev PortEvent) {
		if ev.Kind == EvMisclass {
			misclassEvents++
		}
	})
	p.Enqueue(dataPkt(1, 0, 1500))  // valid
	p.Enqueue(dataPkt(2, 7, 1500))  // out of range: collapses to queue 3
	p.Enqueue(dataPkt(3, -1, 1500)) // negative: collapses to queue 3
	s.Run()
	if got := p.Stats().Misclassified; got != 2 {
		t.Fatalf("Misclassified = %d, want 2", got)
	}
	if misclassEvents != 2 {
		t.Fatalf("misclass events = %d, want 2", misclassEvents)
	}
	// A single-queue host NIC collapses by design: no misclass accounting.
	nic := newTestPort(t, s, units.Gbps, units.MB, 1, buffer.NewBestEffort(), dst)
	nic.Enqueue(dataPkt(4, 3, 1500))
	s.Run()
	if got := nic.Stats().Misclassified; got != 0 {
		t.Fatalf("single-queue NIC Misclassified = %d, want 0", got)
	}
}

func TestPortStatsFoldInLinkCounters(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, units.MB, 1, buffer.NewBestEffort(), dst)
	p.Link().SetDown(true)
	var linkDrops int
	p.AddEventHook(func(ev PortEvent) {
		if ev.Kind == EvLinkDrop {
			linkDrops++
		}
	})
	for i := 0; i < 3; i++ {
		p.Enqueue(dataPkt(packet.FlowID(i), 0, 1500))
	}
	s.Run()
	st := p.Stats()
	if st.LinkLost != 3 || linkDrops != 3 {
		t.Fatalf("LinkLost = %d, link-drop events = %d, want 3 and 3", st.LinkLost, linkDrops)
	}
	if len(dst.pkts) != 0 {
		t.Fatalf("delivered %d packets over a downed link", len(dst.pkts))
	}
}

func TestAddEventHookChains(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p := newTestPort(t, s, units.Gbps, units.MB, 1, buffer.NewBestEffort(), dst)
	var calls []string
	p.AddEventHook(func(ev PortEvent) { calls = append(calls, "first:"+ev.Kind.String()) })
	p.AddEventHook(func(ev PortEvent) { calls = append(calls, "second:"+ev.Kind.String()) })
	p.Enqueue(dataPkt(1, 0, 1500))
	s.Run()
	// Each event reaches the hooks in installation order before the next
	// event is emitted.
	want := []string{"first:enqueue", "second:enqueue", "first:transmit", "second:transmit"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("chained hooks ran %v, want %v", calls, want)
	}
}
