package netsim

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

func TestPortSharedPoolReservation(t *testing.T) {
	s := sim.New()
	pool, err := buffer.NewSharedPool(6000)
	if err != nil {
		t.Fatal(err)
	}
	mkPort := func(dst Node) *Port {
		dt, err := buffer.NewDT(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPort(s, PortConfig{
			Rate: units.Gbps, Buffer: 100 * units.KB, Queues: 1,
			Scheduler: sched.NewSPQ(), Admission: dt,
			Link: NewLink(s, 0, dst),
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Pool() != pool {
			t.Fatal("the port does not draw from its DT's pool")
		}
		return p
	}
	d1, d2 := &sinkNode{s: s}, &sinkNode{s: s}
	p1, p2 := mkPort(d1), mkPort(d2)

	// Port 1 buffers 4 packets (6000B): the first pops straight into the
	// transmitter (releasing its reservation), so 4500B stay reserved.
	for i := 0; i < 4; i++ {
		p1.Enqueue(dataPkt(1, 0, 1500))
	}
	if pool.Used() != 4500 {
		t.Fatalf("pool used = %d, want 4500 (3 buffered, 1 transmitting)", pool.Used())
	}
	// Port 2's first packet pops straight into its (idle) transmitter, so
	// only its second arrival holds the pool's last 1500B...
	p2.Enqueue(dataPkt(2, 0, 1500))
	p2.Enqueue(dataPkt(2, 0, 1500))
	if pool.Used() != 6000 {
		t.Fatalf("pool used = %d after port 2, want 6000", pool.Used())
	}
	// ...then the memory is gone: DT's threshold is α·free = 0.
	p2.Enqueue(dataPkt(2, 0, 1500))
	if p2.Stats().Dropped != 1 {
		t.Fatalf("port 2 drops = %d, want 1 (pool exhausted)", p2.Stats().Dropped)
	}
	s.Run()
	if pool.Used() != 0 {
		t.Fatalf("pool used = %d after drain, want 0", pool.Used())
	}
	if len(d1.pkts) != 4 || len(d2.pkts) != 2 {
		t.Fatalf("deliveries = %d/%d, want 4/2", len(d1.pkts), len(d2.pkts))
	}
}

func TestPortBarberQEviction(t *testing.T) {
	s := sim.New()
	dst := &sinkNode{s: s}
	p, err := NewPort(s, PortConfig{
		Rate: units.Gbps, Buffer: 8 * 1500, Queues: 4,
		Scheduler: sched.EqualDRR(4, 1500), Admission: buffer.NewBarberQ(),
		Link: NewLink(s, 0, dst),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the port with queue 2's packets (the first pops into the
	// transmitter; 8 stay buffered = port full).
	for i := 0; i < 9; i++ {
		p.Enqueue(dataPkt(1, 2, 1500))
	}
	if p.TotalLen() != 8*1500 {
		t.Fatalf("port occupancy = %d, want full", p.TotalLen())
	}
	// A microburst for queue 0 (under its share) evicts queue 2 tails.
	for i := 0; i < 2; i++ {
		p.Enqueue(dataPkt(2, 0, 1500))
	}
	st := p.Stats()
	if st.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (burst absorbed by eviction)", st.Dropped)
	}
	if p.QueueLen(0) != 2*1500 {
		t.Fatalf("queue 0 backlog = %d, want 3000", p.QueueLen(0))
	}
	// Once queue 0 reaches its fair share (2/8 of the buffer), eviction
	// stops helping it and further arrivals drop.
	p.Enqueue(dataPkt(2, 0, 1500))
	if p.Stats().Dropped != 1 {
		t.Fatalf("over-share arrival should drop, stats: %+v", p.Stats())
	}
	s.Run()
	// Conservation: everything enqueued was either delivered or evicted.
	if got := int64(len(dst.pkts)); got+p.Stats().Evicted != p.Stats().Enqueued {
		t.Fatalf("delivered %d + evicted %d ≠ enqueued %d",
			got, p.Stats().Evicted, p.Stats().Enqueued)
	}
}

// pooledBarberQ is BarberQ drawing from switch memory: a scheme that both
// evicts and is buffer.Pooled.
type pooledBarberQ struct {
	*buffer.BarberQ
	pool *buffer.SharedPool
}

func (b pooledBarberQ) Pool() *buffer.SharedPool { return b.pool }

func TestBarberQEvictionRespectsPool(t *testing.T) {
	// Eviction must release pool reservations too.
	s := sim.New()
	pool, err := buffer.NewSharedPool(6 * 1500)
	if err != nil {
		t.Fatal(err)
	}
	dst := &sinkNode{s: s}
	p, err := NewPort(s, PortConfig{
		Rate: units.Gbps, Buffer: 6 * 1500, Queues: 2,
		Scheduler: sched.EqualDRR(2, 1500), Admission: pooledBarberQ{buffer.NewBarberQ(), pool},
		Link: NewLink(s, 0, dst),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		p.Enqueue(dataPkt(1, 1, 1500))
	}
	used := pool.Used()
	p.Enqueue(dataPkt(2, 0, 1500)) // evicts one of queue 1's packets
	if p.Stats().Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", p.Stats().Evicted)
	}
	if pool.Used() != used {
		t.Fatalf("pool used changed %d → %d; eviction+enqueue should balance", used, pool.Used())
	}
	s.Run()
	if pool.Used() != 0 {
		t.Fatal("pool not drained")
	}
}
