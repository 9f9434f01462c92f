package core_test

import (
	"fmt"

	"dynaq/internal/core"
	"dynaq/internal/units"
)

// ExampleState drives Algorithm 1 by hand: four service queues share an 85KB
// port buffer; queue 2 floods packets while queue 1 trickles. Queue 2 grows
// into the idle queues' budget, but the moment queue 1 becomes active and
// unsatisfied, its threshold budget is protected and queue 2's overflow
// packets drop.
func ExampleState() {
	const pktSize = 1500

	st := core.MustNew(85*units.KB, []int64{1, 1, 1, 1})
	fmt.Println("initial thresholds (Eq. 1: B·w_i/Σw):")
	printState(st)

	// The port's live queue backlogs (what the switch would report).
	backlog := make([]units.ByteSize, 4)
	lens := core.QueueLenFunc(func(i int) units.ByteSize { return backlog[i] })

	// Phase 1: queue 2 floods an otherwise idle port. Every time it
	// exceeds its threshold, DynaQ steals budget from an idle queue
	// instead of dropping — work conservation.
	fmt.Println("\nphase 1: queue 2 floods, everyone else idle")
	var admitted, dropped int
	for i := 0; i < 60; i++ {
		res := st.Process(2, pktSize, lens)
		if res.Verdict == core.Drop {
			dropped++
			continue
		}
		backlog[2] += pktSize
		admitted++
	}
	fmt.Printf("  admitted %d, dropped %d\n", admitted, dropped)
	printState(st)

	// Phase 2: queue 1 wakes up with a modest backlog. Its arrivals
	// reclaim threshold from queue 2's surplus...
	fmt.Println("\nphase 2: queue 1 becomes active")
	for i := 0; i < 10; i++ {
		if res := st.Process(1, pktSize, lens); res.Verdict != core.Drop {
			backlog[1] += pktSize
		}
	}
	printState(st)

	// ...and now that queue 1 is active but unsatisfied (T_1 < S_1),
	// queue 2 can no longer take its buffer: Algorithm 1 line 3 drops.
	fmt.Println("\nphase 3: queue 2 keeps pushing — protection kicks in")
	admitted, dropped = 0, 0
	for i := 0; i < 20; i++ {
		res := st.Process(2, pktSize, lens)
		if res.Verdict == core.Drop {
			dropped++
			continue
		}
		backlog[2] += pktSize
		admitted++
	}
	fmt.Printf("  admitted %d, dropped %d (victims are protected)\n", admitted, dropped)
	printState(st)

	fmt.Printf("\nhardware budget: Algorithm 1 needs %d clock cycles for 8 queues (§IV-A)\n",
		core.CycleCost(8))

	// Output:
	// initial thresholds (Eq. 1: B·w_i/Σw):
	//   queue 0: T= 21250  S= 21250  extra=    +0  satisfied=true
	//   queue 1: T= 21250  S= 21250  extra=    +0  satisfied=true
	//   queue 2: T= 21250  S= 21250  extra=    +0  satisfied=true
	//   queue 3: T= 21250  S= 21250  extra=    +0  satisfied=true
	//
	// phase 1: queue 2 floods, everyone else idle
	//   admitted 56, dropped 4
	//   queue 0: T=   250  S= 21250  extra=-21000  satisfied=false
	//   queue 1: T=   250  S= 21250  extra=-21000  satisfied=false
	//   queue 2: T= 84250  S= 21250  extra=+63000  satisfied=true
	//   queue 3: T=   250  S= 21250  extra=-21000  satisfied=false
	//
	// phase 2: queue 1 becomes active
	//   queue 0: T=   250  S= 21250  extra=-21000  satisfied=false
	//   queue 1: T= 15250  S= 21250  extra= -6000  satisfied=false
	//   queue 2: T= 69250  S= 21250  extra=+48000  satisfied=true
	//   queue 3: T=   250  S= 21250  extra=-21000  satisfied=false
	//
	// phase 3: queue 2 keeps pushing — protection kicks in
	//   admitted 0, dropped 20 (victims are protected)
	//   queue 0: T=   250  S= 21250  extra=-21000  satisfied=false
	//   queue 1: T= 15250  S= 21250  extra= -6000  satisfied=false
	//   queue 2: T= 69250  S= 21250  extra=+48000  satisfied=true
	//   queue 3: T=   250  S= 21250  extra=-21000  satisfied=false
	//
	// hardware budget: Algorithm 1 needs 7 clock cycles for 8 queues (§IV-A)
}

func printState(st *core.State) {
	for i := 0; i < st.NumQueues(); i++ {
		fmt.Printf("  queue %d: T=%6d  S=%6d  extra=%+6d  satisfied=%v\n",
			i, st.Threshold(i), st.Satisfaction(i), st.Extra(i), st.Satisfied(i))
	}
}
