package flowsim

import (
	"math/rand"
	"slices"
	"testing"

	"dynaq/internal/packet"
	"dynaq/internal/units"
)

// checkSlots is the per-Step check of the flow table: the used slots are
// exactly the flows in e.active, each knowing its position there; the free
// slots are the rest, each once and none active; every episode entry names a
// live flow, no slot twice in one episode, and a live flow is enrolled in as
// many episodes as its epLinks counts; an episode that lasts through the
// Step keeps its entries in order, dropping some and appending new ones
// (the pump admits in that order); every queued chunk names a live flow or
// is phantom (flow -1).
func checkSlots(tb testing.TB, name string) func(*Engine) {
	step := 0
	var state []uint8 // per slot: 1 active, 2 free
	var enrolled []int32
	var entries [][]packet.FlowID // each demoted link's entries before the Step
	var promotions int64
	return func(e *Engine) {
		step++
		fail := func(format string, args ...any) {
			tb.Helper()
			tb.Fatalf("%s step %d at %v: "+format, append([]any{name, step, e.s.Now()}, args...)...)
		}
		state = append(state[:0], make([]uint8, len(e.flows))...)
		enrolled = append(enrolled[:0], make([]int32, len(e.flows))...)
		for k, fi := range e.active {
			if state[fi] != 0 {
				fail("slot %d is in the active set twice", fi)
			}
			state[fi] = 1
			if got := e.flows[fi].activeIdx; got != int32(k) {
				fail("slot %d is active at %d, but its activeIdx reads %d", fi, k, got)
			}
		}
		for _, fi := range e.free {
			switch state[fi] {
			case 1:
				fail("slot %d is both free and active", fi)
			case 2:
				fail("slot %d is free twice", fi)
			}
			state[fi] = 2
			if got := e.flows[fi].activeIdx; got != -1 {
				fail("free slot %d has activeIdx %d", fi, got)
			}
		}
		for fi, st := range state {
			if st == 0 {
				fail("slot %d of %d is neither active nor free", fi, len(e.flows))
			}
		}
		for li := range e.links {
			ep := e.links[li].ep
			if ep == nil {
				continue
			}
			if len(ep.flows) != len(ep.credit) {
				fail("link %d's episode has %d flows and %d credits", li, len(ep.flows), len(ep.credit))
			}
			if !e.links[li].demoted && len(ep.flows) > 0 {
				fail("link %d is fluid, but its episode still enrolls %v", li, ep.flows)
			}
			for k, fi := range ep.flows {
				if state[fi] != 1 {
					fail("link %d's episode entry %d names slot %d, which is free", li, k, fi)
				}
				for _, other := range ep.flows[:k] {
					if other == fi {
						fail("link %d's episode names slot %d twice: %v", li, fi, ep.flows)
					}
				}
				enrolled[fi]++
			}
			if e.stats.Promotions == promotions && e.links[li].demoted && entries != nil {
				checkEntryOrder(ep, e, entries[li], fail)
			}
			for q := range ep.queues {
				cq := &ep.queues[q]
				for _, c := range cq.chunks[cq.head:] {
					if c.flow >= 0 && state[c.flow] != 1 {
						fail("link %d queue %d holds a chunk of slot %d, which is free", li, q, c.flow)
					}
				}
			}
		}
		for _, fi := range e.active {
			if f := &e.flows[fi]; f.epLinks != enrolled[fi] {
				fail("flow %d (slot %d) counts %d demoted links but is enrolled in %d episodes", f.spec.ID, fi, f.epLinks, enrolled[fi])
			}
		}
		if entries == nil {
			entries = make([][]packet.FlowID, len(e.links))
		}
		promotions = e.stats.Promotions
		for li := range e.links {
			entries[li] = entries[li][:0]
			if ep := e.links[li].ep; ep != nil && e.links[li].demoted {
				for _, fi := range ep.flows {
					entries[li] = append(entries[li], e.flows[fi].spec.ID)
				}
			}
		}
	}
}

// checkEntryOrder fails unless ep's entries are the flows of prev, the
// entries before the Step, in prev's order with some gone, followed by
// flows prev did not hold.
func checkEntryOrder(ep *episode, e *Engine, prev []packet.FlowID, fail func(string, ...any)) {
	j, appended := 0, false
	for _, fi := range ep.flows {
		id := e.flows[fi].spec.ID
		if !slices.Contains(prev, id) {
			appended = true
			continue
		}
		for j < len(prev) && prev[j] != id {
			j++
		}
		if j == len(prev) || appended {
			fail("link %d's episode entries went from %v to slots %v: an entry moved", ep.li, prev, ep.flows)
		}
		j++
	}
}

// orphans counts the chunks queued at demoted links that a completed flow
// left behind: phantom chunks a pump admitted. demote's own phantom chunks
// carry the episode's start time, and a pump admits only after it.
func orphans(e *Engine) int {
	n := 0
	for li := range e.links {
		ep := e.links[li].ep
		if ep == nil || !e.links[li].demoted {
			continue
		}
		for q := range ep.queues {
			cq := &ep.queues[q]
			for _, c := range cq.chunks[cq.head:] {
				if c.flow < 0 && c.at != ep.startT {
					n++
				}
			}
		}
	}
	return n
}

// TestSlotInvariants plays seeded programs of every kind with checkSlots
// after every Step, and checks that they reach what the slot table is
// fragile on: slots reused, flows completing in a pump while enrolled in a
// second episode, whose entry there must go, and completed flows' chunks
// left queued at their owner, which must turn phantom.
func TestSlotInvariants(t *testing.T) {
	var reused, multi, orphaned int
	for seed := int64(1); seed <= 36; seed++ {
		p := genProgram(t, int(seed%numKinds), seed)
		check := checkSlots(t, p.name)
		var promotions int64
		inTwo := map[packet.FlowID]bool{}
		live := map[packet.FlowID]bool{}
		var slots int
		runProgram(t, p, func(e *Engine) {
			check(e)
			clear(live)
			for _, fi := range e.active {
				live[e.flows[fi].spec.ID] = true
			}
			if e.stats.Promotions == promotions {
				for id := range inTwo {
					if !live[id] {
						multi++
					}
				}
			}
			promotions = e.stats.Promotions
			clear(inTwo)
			for _, fi := range e.active {
				if f := &e.flows[fi]; f.epLinks >= 2 {
					inTwo[f.spec.ID] = true
				}
			}
			if orphans(e) > 0 {
				orphaned++
			}
			slots = len(e.flows)
		})
		if slots < len(p.flows) {
			reused++
		}
	}
	t.Logf("%d programs reused slots, %d flows completed while in two episodes, %d Steps held orphaned chunks", reused, multi, orphaned)
	if reused == 0 || multi == 0 || orphaned == 0 {
		t.Fatalf("programs too tame: %d reused slots, %d flows completing while in two episodes, %d Steps with orphaned chunks",
			reused, multi, orphaned)
	}
}

// steadyFatTree is a fluid k=4 fat-tree program of n flows arriving at one
// rate, so that a longer program holds about as many flows in flight as a
// shorter one; its first flows are the same for every n.
func steadyFatTree(tb testing.TB, n int) program {
	tb.Helper()
	topo, err := NewFatTree(4, 10*units.Gbps)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	p := program{name: "steady", cfg: Config{
		Topo: topo, Queues: 3, Weights: []int64{1, 1, 1},
		Buffer: 100 * units.KB, MTU: 1500, MSS: 1460, RTT: 40 * units.Microsecond,
	}}
	at := units.Time(0)
	for i := 0; i < n; i++ {
		at = at.Add(units.Duration(rng.Int63n(int64(12 * units.Microsecond))))
		src := rng.Intn(topo.Hosts())
		dst := (src + 1 + rng.Intn(topo.Hosts()-1)) % topo.Hosts()
		p.at = append(p.at, at)
		p.flows = append(p.flows, FlowSpec{
			ID: packet.FlowID(i + 1), Src: src, Dst: dst, Class: 1 + rng.Intn(2),
			Size: units.ByteSize(1000 + rng.Int63n(60_000)),
		})
	}
	return p
}

// TestSlotTableFollowsFlowsInFlight runs a fat-tree program and one with 8×
// its flows at the same load: the table ends at the same capacity, because
// it follows the flows in flight, not the flows started.
func TestSlotTableFollowsFlowsInFlight(t *testing.T) {
	var caps [2]int
	var peaks [2]int
	for k, n := range []int{300, 2400} {
		p := steadyFatTree(t, n)
		_, st := runProgram(t, p, func(e *Engine) { caps[k] = cap(e.flows) })
		peaks[k] = st.MaxActive
	}
	t.Logf("peak flows in flight %v, table capacity %v", peaks, caps)
	if caps[0] != caps[1] || caps[1] >= 300 {
		t.Fatalf("table capacity %d after 300 flows and %d after 2400 at the same load (peaks %d and %d in flight): the table grows with flows started",
			caps[0], caps[1], peaks[0], peaks[1])
	}
}
