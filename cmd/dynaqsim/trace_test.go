package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/metrics"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// traceArtifacts are the SHA-256 hashes of the artifacts a static run with
// -trace writes: the series (trace_events_total among them), the event
// stream and the bottleneck's retained port events. No fleet golden cell
// runs -trace, so this table is what pins port_events.jsonl and the
// trace_events_total series byte for byte.
var traceArtifacts = map[string]string{
	telemetry.MetricsFile:    "13cd432e1f5756823545c0bf365779c24341b525590757292bca9a6c04fbeebc",
	telemetry.EventsFile:     "a08baa4c493dfb1e41458b0037367bb65f3d429dcfb43c1f3a3269ea2224909e",
	telemetry.PortEventsFile: "e4d84ad1b56c2609ea47242c7c72b6c8e49b3693c9c9b16c60687a588182d726",
}

func TestTraceArtifactsGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	args := []string{"-scheme", "DynaQ", "-spec", "1:2,2:16", "-duration", "1", "-trace", "50", "-telemetry", dir}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	for name, want := range traceArtifacts {
		if got := telemetry.Hash(readFile(t, dir, name)); got != want {
			t.Errorf("%s: sha256 %s, pinned %s", name, got, want)
		}
	}
}

func TestDumpJSONStable(t *testing.T) {
	pkt := &packet.Packet{
		Flow: 7, Kind: packet.Data, Src: 1, Dst: 2,
		Size: 1500, Seq: 4380, Class: 3,
	}
	events := []netsim.PortEvent{
		{At: units.Time(1000), Kind: netsim.EvEnqueue, Queue: 3, Pkt: pkt},
		{At: units.Time(2000), Kind: netsim.EvDrop, Queue: 0, Pkt: nil},
	}

	var buf bytes.Buffer
	if err := dumpJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := `{"t_ps":1000,"kind":"enqueue","queue":3,"flow":7,"src":1,"dst":2,"seq":4380,"size":1500,"class":3}
{"t_ps":2000,"kind":"drop","queue":0}
`
	if buf.String() != want {
		t.Fatalf("DumpJSON:\n%s\nwant:\n%s", buf.String(), want)
	}

	var again bytes.Buffer
	if err := dumpJSON(&again, events); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatalf("DumpJSON not byte-stable")
	}
}

type devNull struct{}

func (devNull) Receive(*packet.Packet) {}

// TestDumpJSONKeepsARecycledPacket: a dropped packet goes back to its pool
// as soon as the port's hooks have seen the drop, and the next sender gets
// the same object; port_events.jsonl must still show the packet that
// dropped.
func TestDumpJSONKeepsARecycledPacket(t *testing.T) {
	s := sim.New()
	p, err := netsim.NewPort(s, netsim.PortConfig{
		Rate: units.Gbps, Buffer: 3000, Queues: 2,
		Scheduler: sched.EqualDRR(2, 1500),
		Admission: buffer.NewBestEffort(),
		Link:      netsim.NewLink(s, 0, devNull{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := metrics.NewEventRecorder(100)
	if err != nil {
		t.Fatal(err)
	}
	rec.Only(netsim.EvDrop).Attach(p)
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
	if reused := send(9, 123456, 1400); reused != dropped {
		t.Fatal("the pool did not hand the dropped packet to the next sender; the test no longer tests reuse")
	}
	var js strings.Builder
	if err := dumpJSON(&js, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if line := strings.SplitN(js.String(), "\n", 2)[0]; !strings.Contains(line, `"flow":7,"src":1,"dst":2,"seq":4380,"size":900`) {
		t.Errorf("DumpJSON's first line lost the dropped packet: %q", line)
	}
}
