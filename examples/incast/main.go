// Incast: microburst absorption under different buffer managers, with
// per-packet tracing.
//
// A long-flow hog fills a port's buffer through queue 2. One second in, 24
// small request-response flows (a partition/aggregate "incast") burst into
// queue 1. The example compares how much of the burst each scheme drops —
// best-effort sacrifices it, DynaQ's thresholds shield it, and BarberQ
// (the eviction scheme the paper cites as [12]) pushes the hog's packets
// out to absorb it — and dumps a packet-level trace of the burst window.
//
//	go run ./examples/incast
package main

import (
	"fmt"
	"log"

	"dynaq"
)

const (
	burstFlows = 24
	burstSize  = 6 * dynaq.KB
)

func main() {
	for _, scheme := range []dynaq.Scheme{
		dynaq.SchemeBestEffort, dynaq.SchemeDynaQ, dynaq.SchemeBarberQ,
	} {
		drops, evicted, avgFCT, done := run(scheme)
		fmt.Printf("%-11s burst: %2d/%d done, avg FCT %6.2fms, queue-1 drops %3d, evictions %3d\n",
			scheme, done, burstFlows, avgFCT, drops, evicted)
	}
}

func run(scheme dynaq.Scheme) (drops, evicted int64, avgMs float64, done int) {
	s := dynaq.NewSimulator()
	net, err := dynaq.NewStarNetwork(s, dynaq.StarConfig{
		Hosts:  3,
		Rate:   dynaq.Gbps,
		Delay:  125 * dynaq.Microsecond,
		Buffer: 85 * dynaq.KB,
		Queues: 4,
		Scheme: scheme,
		Sched:  dynaq.DRR,
	})
	if err != nil {
		log.Fatal(err)
	}
	const receiver = 2
	port := net.Port(receiver)

	// Trace only the interesting events at the bottleneck.
	rec, err := dynaq.NewEventRecorder(64)
	if err != nil {
		log.Fatal(err)
	}
	rec.Only(dynaq.EvDrop, dynaq.EvEvict)
	rec.Attach(port)

	// The hog: 16 long flows into queue 2.
	for i := 0; i < 16; i++ {
		id := dynaq.FlowID(1 + i)
		s.At(dynaq.Time(i)*dynaq.Time(dynaq.Millisecond)/4, func() {
			if _, err := net.Endpoints[0].StartFlow(dynaq.FlowConfig{
				Flow: id, Dst: receiver, Class: 2,
			}); err != nil {
				log.Fatal(err)
			}
		})
	}
	// The incast: burstFlows small flows into queue 1 at t=1s.
	fct := dynaq.NewFCTCollector()
	for i := 0; i < burstFlows; i++ {
		id := dynaq.FlowID(100 + i)
		s.At(dynaq.Time(dynaq.Second).Add(dynaq.Duration(i)*dynaq.Microsecond), func() {
			if _, err := net.Endpoints[1].StartFlow(dynaq.FlowConfig{
				Flow: id, Dst: receiver, Class: 1, Size: burstSize,
				OnComplete: func(d dynaq.Duration) { fct.Add(burstSize, d) },
			}); err != nil {
				log.Fatal(err)
			}
		})
	}
	var dropsBefore int64
	s.At(dynaq.Time(dynaq.Second-dynaq.Picosecond), func() { dropsBefore = port.QueueDrops(1) })
	s.RunUntil(dynaq.Time(3 * dynaq.Second))

	return port.QueueDrops(1) - dropsBefore,
		port.Stats().Evicted,
		float64(fct.Avg(dynaq.AllFlows)) / float64(dynaq.Millisecond),
		fct.Count(dynaq.AllFlows)
}
