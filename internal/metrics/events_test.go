package metrics

import (
	"strings"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

type devNull struct{}

func (devNull) Receive(*packet.Packet) {}

func newTracedPort(t *testing.T, s *sim.Simulator, buf units.ByteSize) (*netsim.Port, *EventRecorder) {
	t.Helper()
	p, err := netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: buf, Queues: 2,
		Scheduler: sched.EqualDRR(2, 1500),
		Admission: buffer.NewBestEffort(),
		Link:      netsim.NewLink(s, 0, devNull{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewEventRecorder(100)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(p)
	return p, rec
}

func pkt(class int) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Size: 1500, Class: class}
}

func TestRecorderValidation(t *testing.T) {
	if _, err := NewEventRecorder(0); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	s := sim.New()
	p, rec := newTracedPort(t, s, 100*units.KB)
	for i := 0; i < 3; i++ {
		p.Enqueue(pkt(0))
	}
	s.Run()
	if got := rec.Count(netsim.EvEnqueue); got != 3 {
		t.Fatalf("enqueues = %d, want 3", got)
	}
	if got := rec.Count(netsim.EvTransmit); got != 3 {
		t.Fatalf("transmits = %d, want 3", got)
	}
	evs := rec.Events()
	if len(evs) != 6 {
		t.Fatalf("retained = %d, want 6", len(evs))
	}
	if evs[0].Kind != netsim.EvEnqueue {
		t.Fatalf("first event = %v", evs[0].Kind)
	}
	// Timestamps are nondecreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestRecorderCapturesDrops(t *testing.T) {
	s := sim.New()
	p, rec := newTracedPort(t, s, 3000)
	for i := 0; i < 5; i++ {
		p.Enqueue(pkt(0))
	}
	s.Run()
	if rec.Count(netsim.EvDrop) == 0 {
		t.Fatal("no drops recorded on an overrun port")
	}
	var b strings.Builder
	if err := rec.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "drop") {
		t.Errorf("dump missing drop lines:\n%s", b.String())
	}
	if !strings.Contains(rec.Summary(), "drop=") {
		t.Errorf("summary missing drops: %s", rec.Summary())
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	rec, err := NewEventRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec.record(netsim.PortEvent{At: units.Time(i), Kind: netsim.EvEnqueue})
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// Oldest-first: the ring holds events 6..9.
	for i, ev := range evs {
		if ev.At != units.Time(6+i) {
			t.Fatalf("event %d at %d, want %d", i, ev.At, 6+i)
		}
	}
	if rec.Count(netsim.EvEnqueue) != 10 {
		t.Fatal("counters must survive ring overwrite")
	}
}

func TestRecorderFilter(t *testing.T) {
	rec, err := NewEventRecorder(10)
	if err != nil {
		t.Fatal(err)
	}
	rec.Only(netsim.EvDrop)
	rec.record(netsim.PortEvent{Kind: netsim.EvEnqueue})
	rec.record(netsim.PortEvent{Kind: netsim.EvDrop})
	if rec.Len() != 1 {
		t.Fatalf("retained = %d, want only the drop", rec.Len())
	}
	// Counting still covers filtered-out kinds.
	if rec.Count(netsim.EvEnqueue) != 1 {
		t.Fatal("filtered kinds must still count")
	}
}

func TestEmptySummary(t *testing.T) {
	rec, _ := NewEventRecorder(1)
	if rec.Summary() != "(no events)" {
		t.Errorf("Summary = %q", rec.Summary())
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[netsim.PortEventKind]string{
		netsim.EvEnqueue: "enqueue", netsim.EvDrop: "drop", netsim.EvMark: "mark",
		netsim.EvEvict: "evict", netsim.EvDequeueDrop: "dequeue-drop",
		netsim.EvTransmit: "transmit", netsim.PortEventKind(99): "PortEventKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", k, got, want)
		}
	}
}

// TestRecorderOutlivesPacketReuse: a dropped packet goes back to its pool
// as soon as the port's hooks have seen the drop, and the next flow to send
// gets the same object. The ring must still show the packet that dropped.
func TestRecorderOutlivesPacketReuse(t *testing.T) {
	s := sim.New()
	p, rec := newTracedPort(t, s, 3000)
	rec.Only(netsim.EvDrop)
	var pool packet.Pool
	send := func(flow packet.FlowID, seq int64, size units.ByteSize) *packet.Packet {
		pk := pool.Get()
		pk.Kind, pk.Flow, pk.Src, pk.Dst, pk.Seq, pk.Size = packet.Data, flow, 1, 2, seq, size
		p.Enqueue(pk)
		return pk
	}
	send(1, 0, 1500) // into the transmitter
	send(1, 1460, 1500)
	send(1, 2920, 1500)           // the 3000 B buffer is full
	dropped := send(7, 4380, 900) // flow 7's packet drops and is released
	reused := send(9, 123456, 1400)
	if reused != dropped {
		t.Fatal("the pool did not hand the dropped packet to the next sender; the test no longer tests reuse")
	}
	if rec.Count(netsim.EvDrop) != 2 {
		t.Fatalf("drops = %d, want 2", rec.Count(netsim.EvDrop))
	}
	evs := rec.Events()
	if got := evs[0].Pkt; got.Flow != 7 || got.Seq != 4380 || got.Size != 900 {
		t.Fatalf("first drop reads flow=%d seq=%d size=%d, want the dropped packet's 7/4380/900",
			got.Flow, got.Seq, got.Size)
	}
	var text strings.Builder
	if err := rec.Dump(&text); err != nil {
		t.Fatal(err)
	}
	if line := strings.SplitN(text.String(), "\n", 2)[0]; !strings.Contains(line, "flow=7 1->2 seq=4380 ack=0 size=900") {
		t.Errorf("Dump's first line lost the dropped packet: %q", line)
	}
	// A copy handed out is the caller's: releasing it must not reach the pool.
	evs[0].Pkt.Release()
	if pool.Idle() != 1 {
		t.Fatalf("pool holds %d idle packets after releasing a recorded copy, want the 1 second drop", pool.Idle())
	}
}
