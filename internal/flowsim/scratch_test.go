package flowsim

import (
	"math/bits"
	"runtime"
	"testing"

	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// TestRecomputeScratchGrowsByDoubling climbs an engine's active set from 1
// to n flows, recomputing after each start, so that every recompute sees a
// new high. Recompute's caps, rates and paths and the filler's order,
// frozen and items grow by doubling, so the climb allocates O(log n) times
// in recompute and fill: each of those six slices at most bits.Len(n·6)+1
// times (a fat-tree path is at most six links), and linkCaps and the
// filler's per-link slices once. Growing each to exactly the new size
// allocated six slices per new high, about 6n.
func TestRecomputeScratchGrowsByDoubling(t *testing.T) {
	topo, err := NewFatTree(4, 10*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	e, err := New(s, testConfig(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 1024
	hosts := topo.Hosts()
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < n; i++ {
		src := i % hosts
		e.startFlow(FlowSpec{
			ID: packet.FlowID(i + 1), Src: src, Dst: (src + 1 + i/hosts%(hosts-1)) % hosts,
			Class: 1 + i%2, Size: units.GB,
		})
		runtime.ReadMemStats(&m0)
		e.recompute()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	if got := e.Active(); got != n {
		t.Fatalf("%d flows active, want %d", got, n)
	}
	limit := uint64(6*(bits.Len(6*n)+1) + 7)
	t.Logf("%d mallocs over %d recomputes, limit %d", mallocs, n, limit)
	if mallocs > limit {
		t.Errorf("climbing to %d active flows made %d mallocs in recompute, want at most %d: the scratch regrows per new high", n, mallocs, limit)
	}
}
