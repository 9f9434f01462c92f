package main

import (
	"fmt"
	"time"

	"dynaq/internal/buffer"
	"dynaq/internal/core"
	"dynaq/internal/experiment"
	"dynaq/internal/fairq"
	"dynaq/internal/fleet"
	"dynaq/internal/flowsim"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/server"
	"dynaq/internal/sim"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// Layer drivers: timed loops over one layer's public functions, the rungs
// of the ladder below a whole cell. They run in the same process as the
// traced cells, so machine speed cancels in the ratios between rungs.

// timeOp calls fn(batch) until the driver's minimum duration has passed and
// returns the median nanoseconds per operation over the batches.
func timeOp(cfg config, batch int, fn func(n int)) float64 {
	if cfg.smoke {
		batch = max(1, batch/256)
	}
	fn(batch) // warm caches and free lists
	var per []float64
	start := now()
	for len(per) < 3 || since(start) < cfg.driverDur() {
		t0 := now()
		fn(batch)
		per = append(per, float64(since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// driveSimEngine times AfterCall + Step with depth events pending, the heap
// depth the workload's own cells reached.
func driveSimEngine(cfg config, depth int) float64 {
	s := sim.New()
	var fired int
	fn := func(a any) { *a.(*int)++ }
	for j := 0; j < depth; j++ {
		s.AfterCall(units.Duration(j+1)*units.Microsecond, fn, &fired)
	}
	span := units.Duration(depth) * units.Microsecond
	return timeOp(cfg, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			s.AfterCall(span, fn, &fired)
			s.Step()
		}
	})
}

// qlens is a fixed queue-length vector.
type qlens []units.ByteSize

func (q qlens) QueueLen(i int) units.ByteSize { return q[i] }

// portView is a fixed 8-queue port state: four queues at 24 KB, four empty,
// in a 192 KB buffer.
type portView struct {
	b     units.ByteSize
	lens  []units.ByteSize
	total units.ByteSize
}

func newPortView() *portView {
	v := &portView{b: 192 * units.KB, lens: make([]units.ByteSize, 8)}
	for i := 0; i < 4; i++ {
		v.lens[i] = 24 * units.KB
		v.total += v.lens[i]
	}
	return v
}

func (v *portView) NumQueues() int                { return len(v.lens) }
func (v *portView) QueueLen(i int) units.ByteSize { return v.lens[i] }
func (v *portView) TotalLen() units.ByteSize      { return v.total }
func (v *portView) Buffer() units.ByteSize        { return v.b }

// backlog is a scheduler view whose queues from first on hold four MTU
// packets each and never drain.
type backlog struct{ n, first int }

func (b backlog) NumQueues() int { return b.n }
func (b backlog) QueueLen(i int) units.ByteSize {
	if i < b.first {
		return 0
	}
	return 6000
}
func (b backlog) HeadSize(i int) units.ByteSize {
	if i < b.first {
		return 0
	}
	return 1500
}

// sink counts packets a link delivers.
type sink struct{ n int }

func (s *sink) Receive(*packet.Packet) { s.n++ }

func ones(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func quantums(n int) []units.ByteSize {
	q := make([]units.ByteSize, n)
	for i := range q {
		q[i] = 1500
	}
	return q
}

// driveAdmission times one buffer-management scheme as a port calls it:
// Admit, then whichever enqueue and dequeue hooks the scheme implements.
func driveAdmission(cfg config, scheme experiment.Scheme) (float64, error) {
	params := experiment.SchemeParams{
		Rate:    10 * units.Gbps,
		BaseRTT: units.Duration(85.2 * float64(units.Microsecond)),
		Weights: ones(8),
	}
	adm, err := scheme.NewAdmission(params, 192*units.KB, 8)
	if err != nil {
		return 0, err
	}
	enq, _ := adm.(buffer.EnqueueMarker)
	deqMark, _ := adm.(buffer.DequeueMarker)
	deqObs, _ := adm.(buffer.DequeueObserver)
	v := newPortView()
	var at units.Time
	return timeOp(cfg, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			cls := i % 8
			if adm.Admit(v, cls, 1500) && enq != nil {
				enq.MarkOnEnqueue(v, cls, 1500)
			}
			if deqMark != nil {
				deqMark.MarkOnDequeue(cls, 10*units.Microsecond)
			}
			if deqObs != nil {
				at = at.Add(units.Microsecond)
				deqObs.ObserveDequeue(v, cls, 1500, at)
			}
		}
	}), nil
}

// drivePort times a packet's whole stay at a switch port: Port.Enqueue,
// scheduling, serialization and Link delivery into a counting node. DynaQ
// over SPQ+DRR with 5 queues at 1 Gbps and 85 KB, the star workload's port.
func drivePort(cfg config) (float64, error) {
	s := sim.New()
	dst := &sink{}
	adm, err := experiment.DynaQ.NewAdmission(experiment.SchemeParams{Weights: ones(5)}, 85*units.KB, 5)
	if err != nil {
		return 0, err
	}
	schd, err := sched.NewSPQDRR(1, quantums(4))
	if err != nil {
		return 0, err
	}
	port, err := netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: 85 * units.KB, Queues: 5,
		Scheduler: schd, Admission: adm,
		Link: netsim.NewLink(s, units.Microsecond, dst),
	})
	if err != nil {
		return 0, err
	}
	// 32 packets are 8 per DRR queue, 12 KB against a 17 KB threshold:
	// nothing drops, so every offered packet crosses the whole path.
	burst := make([]*packet.Packet, 32)
	for i := range burst {
		burst[i] = &packet.Packet{Kind: packet.Data, Class: 1 + i%4, Size: 1500, Payload: 1460}
	}
	offered := 0
	ns := timeOp(cfg, 1<<13, func(n int) {
		for i := 0; i < n; i += len(burst) {
			for _, p := range burst {
				port.Enqueue(p)
			}
			offered += len(burst)
			s.Run()
		}
	})
	if dst.n != offered {
		return 0, fmt.Errorf("port driver delivered %d of %d packets", dst.n, offered)
	}
	return ns, nil
}

// driveLoopback times the transport per data packet: one NewReno flow
// between two hosts wired NIC to NIC, no switch and no loss.
func driveLoopback(cfg config) (float64, error) {
	const flowSize = 4 * units.MB
	var pkts int64
	var fail error
	nic := func(s *sim.Simulator, dst netsim.Node) *netsim.Port {
		p, err := netsim.NewPort(s, netsim.PortConfig{
			Rate: 10 * units.Gbps, Buffer: units.GB, Queues: 1,
			Scheduler: sched.NewSPQ(), Admission: buffer.NewBestEffort(),
			Link: netsim.NewLink(s, 10*units.Microsecond, dst),
		})
		if err != nil {
			fail = err
		}
		return p
	}
	oneFlow := func() {
		s := sim.New()
		ha, hb := netsim.NewHost(0, nil), netsim.NewHost(1, nil)
		ha.SetEgress(nic(s, hb))
		hb.SetEgress(nic(s, ha))
		if fail != nil {
			return
		}
		a := transport.NewEndpoint(s, ha)
		transport.NewEndpoint(s, hb)
		done := false
		snd, err := a.StartFlow(transport.FlowConfig{
			Flow: 1, Dst: 1, Size: flowSize,
			OnComplete: func(units.Duration) { done = true },
		})
		if err != nil {
			fail = err
			return
		}
		s.Run()
		st := snd.Stats()
		if !done || st.Retransmits != 0 {
			fail = fmt.Errorf("loopback flow: done %v, %d retransmits", done, st.Retransmits)
		}
		pkts = st.SentPackets
	}
	perFlow := timeOp(cfg, 1, func(n int) {
		for i := 0; i < n; i++ {
			oneFlow()
		}
	})
	if fail != nil {
		return 0, fail
	}
	return perFlow / float64(pkts), nil
}

// drivePushPop times Push + Pop + Release on a fair tree that holds 1000
// queued items over the given number of tenants.
func drivePushPop(cfg config, tenants int) float64 {
	tree := fairq.New[int](nil, 0)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	epoch := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		tree.Push(names[i%tenants], i, epoch)
	}
	return timeOp(cfg, 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			tree.Push(names[i%tenants], i, epoch)
			name, _, _ := tree.Pop(epoch, nil)
			tree.Release(name)
		}
	})
}

// driveLayers runs every layer driver and files its metric in r.
func driveLayers(cfg config, r *report) {
	put := func(name string, v float64, err error) {
		if err != nil {
			r.failf("driver %s: %v", name, err)
			return
		}
		r.Metrics[name] = one(unitOf(name), v)
	}

	st := core.MustNew(192*units.KB, ones(8))
	q := make(qlens, 8)
	put("core.process_pass_ns", timeOp(cfg, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			st.Process(i%8, 1500, q)
		}
	}), nil)
	st = core.MustNew(192*units.KB, ones(8))
	put("core.process_adjust_ns", timeOp(cfg, 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			q[0] = st.Threshold(0) // keep queue 0 pinned at its threshold
			st.Process(0, 1500, q)
		}
	}), nil)

	for _, scheme := range []experiment.Scheme{
		experiment.DynaQ, experiment.BestEffort, experiment.PQL, experiment.PMSB, experiment.TCN,
	} {
		v, err := driveAdmission(cfg, scheme)
		put("buffer.admit_ns."+string(scheme), v, err)
	}

	drr := sched.EqualDRR(8, 1500)
	put("sched.select_ns.drr", timeOp(cfg, 1<<16, func(n int) {
		v := backlog{n: 8}
		for i := 0; i < n; i++ {
			drr.OnDequeue(drr.Select(v), 1500, false)
		}
	}), nil)
	// The priority queue is left empty, as it mostly is in a cell, so that
	// Select reaches the DRR queues behind it.
	spq, err := sched.NewSPQDRR(1, quantums(7))
	if err != nil {
		put("sched.select_ns.spqdrr", 0, err)
	} else {
		put("sched.select_ns.spqdrr", timeOp(cfg, 1<<16, func(n int) {
			v := backlog{n: 8, first: 1}
			for i := 0; i < n; i++ {
				spq.OnDequeue(spq.Select(v), 1500, false)
			}
		}), nil)
	}

	v, err := drivePort(cfg)
	put("netsim.port_ns_per_pkt", v, err)
	v, err = driveLoopback(cfg)
	put("transport.loopback_ns_per_pkt", v, err)

	var topo *flowsim.Topology
	buildNs := timeOp(cfg, 1, func(n int) {
		for i := 0; i < n; i++ {
			topo, err = flowsim.NewFatTree(8, 10*units.Gbps)
		}
	})
	put("flowsim.topology_build_ms", buildNs/1e6, err)
	if err == nil {
		hosts := topo.Hosts()
		var buf []int32
		put("flowsim.path_ns", timeOp(cfg, 1<<14, func(n int) {
			for i := 0; i < n; i++ {
				src := i % hosts
				buf = topo.Path(src, (src+1+i%(hosts-1))%hosts, uint64(i), buf[:0])
			}
		}), nil)
	}

	gen, err := workload.NewFlowGen(cfg.seed, workload.WebSearch(), 10*units.Gbps, 0.6)
	if err != nil {
		put("workload.flowgen_ns_per_flow", 0, err)
	} else {
		put("workload.flowgen_ns_per_flow", timeOp(cfg, 1<<14, func(n int) {
			for i := 0; i < n; i++ {
				gen.NextSize()
				gen.NextInterarrival()
			}
		}), nil)
	}

	put("fairq.push_pop_ns.4t", drivePushPop(cfg, 4), nil)
	put("fairq.push_pop_ns.64t", drivePushPop(cfg, 64), nil)

	table := fleet.NewTable()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	epoch := time.Unix(0, 0)
	put("fleet.lease_table_ns", timeOp(cfg, 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			l := table.Grant(keys[i%len(keys)], "job", "w", 1, epoch, time.Minute)
			table.Renew(l.ID, epoch, time.Minute)
			table.Complete(l.ID)
		}
	}), nil)

	put("server.cachekey_ns", timeOp(cfg, 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			server.CacheKey("bench", keys[0], "DynaQ", "packet", int64(i))
		}
	}), nil)
}
