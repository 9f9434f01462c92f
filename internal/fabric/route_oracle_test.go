package fabric

import (
	"math/rand"
	"testing"

	"dynaq/internal/units"
)

// parentChoices and parentNextHop are Graph.Choices and Graph.NextHop as they
// stood before the down ports came from a table, kept verbatim as functions
// of the graph: the oracle the table route is held to.
func parentChoices(g *Graph, sw, dst int, key uint64) (first, n int, sel uint64) {
	s := &g.switches[sw]
	if dst >= s.lo && dst < s.hi {
		return (dst - s.lo) / s.span, 1, 0
	}
	return s.nDown, s.nUp, Hash(key) >> s.shift
}

func parentNextHop(g *Graph, sw, dst int, key uint64) int {
	first, n, sel := parentChoices(g, sw, dst, key)
	return first + int(sel%uint64(n))
}

// TestTableRouteMatchesParent holds Choices and NextHop to the parent's
// arithmetic at every switch, toward every host, for 1 000 sampled flow keys,
// on a star, a leaf-spine and a k=8 fat tree.
func TestTableRouteMatchesParent(t *testing.T) {
	star, err := NewStar(9, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeafSpine(4, 3, 5, 10*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(8, 10*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	keys[0], keys[1] = 0, ^uint64(0)
	for _, g := range []*Graph{star, ls, ft} {
		for sw := 0; sw < g.NumSwitches(); sw++ {
			for dst := 0; dst < g.Hosts(); dst++ {
				for _, key := range keys {
					first, n, sel := g.Choices(sw, dst, key)
					wFirst, wN, wSel := parentChoices(g, sw, dst, key)
					if first != wFirst || n != wN || sel != wSel {
						t.Fatalf("%s %s → host %d, key %#x: Choices %d, %d, %#x; parent %d, %d, %#x",
							g.Kind(), g.SwitchName(sw), dst, key, first, n, sel, wFirst, wN, wSel)
					}
					if got, want := g.NextHop(sw, dst, key), parentNextHop(g, sw, dst, key); got != want {
						t.Fatalf("%s %s → host %d, key %#x: NextHop %d, parent %d", g.Kind(), g.SwitchName(sw), dst, key, got, want)
					}
				}
			}
		}
	}
}
