package transport_test

import (
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// TestEndpointKeepsOnlyLiveSenders: on a congested star, each endpoint holds
// exactly its unfinished senders, mid-run and at the end, while its counters
// still cover every flow it started, finished ones included. The network's
// flow table counts the same live senders, and at the end it holds no live
// receiver but those of stopped flows whose go-back-N left bytes in flight
// past the stop.
func TestEndpointKeepsOnlyLiveSenders(t *testing.T) {
	const hosts = 4
	s := sim.New()
	g, err := fabric.NewStar(hosts, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Build(s, g, topology.Config{
		Delay: 25 * units.Microsecond, Buffer: 30 * units.KB, Queues: 1,
		Factories: topology.Factories{
			NewScheduler: func(n int) (sched.Scheduler, error) { return sched.EqualDRR(n, 1500), nil },
			NewAdmission: func(units.ByteSize, int, *buffer.SharedPool) (buffer.Admission, error) {
				return buffer.NewBestEffort(), nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var started [hosts][]*transport.Sender
	id := 0
	for src := 0; src < hosts; src++ {
		for f := 0; f < 6; f++ {
			id++
			size := units.ByteSize(f+1) * 30 * units.KB
			if f == 5 {
				size = 0 // unbounded until stopped
			}
			snd, err := net.Endpoints[src].StartFlow(transport.FlowConfig{
				Flow: packet.FlowID(id), Dst: (src + 1 + f%3) % hosts, Size: size,
			})
			if err != nil {
				t.Fatal(err)
			}
			started[src] = append(started[src], snd)
		}
	}
	check := func(when string) (live, done int, all transport.SenderStats) {
		for h, ep := range net.Endpoints {
			var want transport.SenderStats
			hostLive := 0
			for _, snd := range started[h] {
				st := snd.Stats()
				want.SentPackets += st.SentPackets
				want.SentBytes += st.SentBytes
				want.Retransmits += st.Retransmits
				want.Timeouts += st.Timeouts
				want.FastRecovers += st.FastRecovers
				want.EchoedAcks += st.EchoedAcks
				if snd.Done() {
					done++
				} else {
					hostLive++
				}
			}
			if got := ep.ActiveFlows(); got != hostLive {
				t.Errorf("%s: host %d holds %d senders, %d are live", when, h, got, hostLive)
			}
			if got := ep.TotalStats(); got != want {
				t.Errorf("%s: host %d TotalStats %+v, its flows sum to %+v", when, h, got, want)
			}
			live += hostLive
			all.Retransmits += want.Retransmits
		}
		if snds, _ := net.Flows.Live(); snds != live {
			t.Errorf("%s: the flow table counts %d live senders, the endpoints %d", when, snds, live)
		}
		return live, done, all
	}
	s.RunUntil(units.Time(10 * units.Millisecond))
	if live, done, _ := check("mid-run"); live == 0 || done == 0 {
		t.Fatalf("mid-run: %d live and %d finished flows; the check needs both", live, done)
	}
	for _, snds := range started {
		snds[5].Stop()
	}
	s.Run()
	if live, _, all := check("end"); live != 0 || all.Retransmits == 0 {
		t.Fatalf("end: %d live flows, %d retransmits; want none live, some retransmitted", live, all.Retransmits)
	}
	if _, rcvs := net.Flows.Live(); rcvs > hosts {
		t.Fatalf("end: %d live receivers, more than the %d stopped flows", rcvs, hosts)
	}
}
