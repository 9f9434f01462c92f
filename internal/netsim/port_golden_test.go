package netsim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

var updatePortEvents = flag.Bool("update-port-events", false, "rewrite testdata/port_events.golden")

// forward hands each arriving packet to the next port of the chain, under a
// class that port has.
type forward struct {
	next   *netsim.Port
	queues int
}

func (f *forward) Receive(p *packet.Packet) {
	p.Class = int(p.Flow) % f.queues
	f.next.Enqueue(p)
}

// sink ends every packet that leaves the chain.
type sink struct{}

func (sink) Receive(p *packet.Packet) { p.Release() }

// portChain is three ports in a row, each also fed directly: SPQ+DRR under
// DynaQ at 10 Gbps, DRR under BarberQ at 1 Gbps with a buffer small enough
// to evict, and WRR under TCN-drop at 1 Gbps, whose dequeue drops idle the
// link.
func portChain(tb testing.TB, s *sim.Simulator) [3]*netsim.Port {
	tb.Helper()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	spqdrr, err := sched.NewSPQDRR(1, []units.ByteSize{1500, 3000, 1500, 9000})
	must(err)
	dynaq, err := buffer.NewDynaQ(96*units.KB, []int64{1, 1, 2, 1, 1})
	must(err)
	drr, err := sched.NewDRR([]units.ByteSize{1500, 500, 4500, 9000})
	must(err)
	wrr, err := sched.NewWRR([]int64{1, 3, 2})
	must(err)
	tcnDrop, err := buffer.NewTCNDrop(150 * units.Microsecond)
	must(err)

	var ports [3]*netsim.Port
	ports[2], err = netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: 200 * units.KB, Queues: 3,
		Scheduler: wrr, Admission: tcnDrop,
		Link: netsim.NewLink(s, units.Microsecond, sink{}),
	})
	must(err)
	ports[1], err = netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: 24 * units.KB, Queues: 4,
		Scheduler: drr, Admission: buffer.NewBarberQ(),
		Link: netsim.NewLink(s, 2*units.Microsecond, &forward{next: ports[2], queues: 3}),
	})
	must(err)
	ports[0], err = netsim.NewPort(s, netsim.PortConfig{
		Rate: 10 * units.Gbps, Buffer: 96 * units.KB, Queues: 5,
		Scheduler: spqdrr, Admission: dynaq,
		Link: netsim.NewLink(s, units.Microsecond, &forward{next: ports[1], queues: 4}),
	})
	must(err)
	return ports
}

// portEventLog drives the chain with one seeded schedule and renders every
// port's events, its counters and the number of simulator events run. Sizes
// are ACKs, MTU and jumbo segments and odd tails. No jumbo segment is sent
// before half time, so each port's largest size so far grows mid-run.
func portEventLog(tb testing.TB) []byte {
	s := sim.New()
	ports := portChain(tb, s)
	var recs [3]*metrics.EventRecorder
	for i, p := range ports {
		r, err := metrics.NewEventRecorder(1 << 16)
		if err != nil {
			tb.Fatal(err)
		}
		r.Attach(p)
		recs[i] = r
	}
	var pool packet.Pool
	rng := rand.New(rand.NewSource(31))
	const packets, span = 450, 1500 // span in µs
	for i := 0; i < packets; {
		// A burst: up to a dozen packets into one port at one instant.
		at, port := rng.Intn(span), rng.Intn(3)
		for n := 1 + rng.Intn(12); n > 0 && i < packets; n-- {
			var size units.ByteSize
			switch k := rng.Intn(8); {
			case k < 2:
				size = 40
			case k < 5:
				size = 1500
			case k < 6 && at >= span/2:
				size = 9000
			default:
				size = units.ByteSize(41 + rng.Intn(1459))
			}
			flow, class := packet.FlowID(i), rng.Intn(5)
			s.At(units.Time(at)*units.Time(units.Microsecond), func() {
				p := pool.Get()
				p.Kind, p.Flow, p.Size, p.Class, p.ECN = packet.Data, flow, size, class, packet.ECT
				ports[port].Enqueue(p)
			})
			i++
		}
	}
	s.Run()
	var b bytes.Buffer
	for i, r := range recs {
		fmt.Fprintf(&b, "port %d\n", i)
		for _, ev := range r.Events() {
			fmt.Fprintf(&b, "%d %s q=%d flow=%d size=%d\n", int64(ev.At), ev.Kind, ev.Queue, ev.Pkt.Flow, int64(ev.Pkt.Size))
		}
		st := ports[i].Stats()
		fmt.Fprintf(&b, "enqueued=%d dropped=%d evicted=%d dequeue-dropped=%d marked=%d tx=%d/%dB\n",
			st.Enqueued, st.Dropped, st.Evicted, st.DequeueDrops, st.Marked, st.TxPackets, int64(st.TxBytes))
	}
	fmt.Fprintf(&b, "events processed %d\n", s.Processed())
	if pool.Idle() != pool.Allocated() {
		tb.Fatalf("%d of %d packets came back", pool.Idle(), pool.Allocated())
	}
	return b.Bytes()
}

// TestPortEventsGolden pins what a chain of ports does, event by event, to
// the log it produced when every serialization completion was a heap event.
// Lanes and the heap order events by the same (when, seq), so moving a
// completion between them changes nothing here; a completion fired at any
// other time than its packet's serialization delay does.
func TestPortEventsGolden(t *testing.T) {
	got := portEventLog(t)
	path := filepath.Join("testdata", "port_events.golden")
	if *updatePortEvents {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("port event log differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("port event log has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
