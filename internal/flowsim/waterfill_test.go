package flowsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dynaq/internal/units"
)

func fillOnce(t *testing.T, linkCap []units.Rate, flowCap []units.Rate, paths [][]int32) []units.Rate {
	t.Helper()
	var w waterfiller
	out := make([]units.Rate, len(flowCap))
	w.fill(linkCap, flowCap, paths, out)
	return out
}

func TestWaterfillEqualShare(t *testing.T) {
	links := []units.Rate{units.Gbps}
	caps := []units.Rate{10 * units.Gbps, 10 * units.Gbps}
	paths := [][]int32{{0}, {0}}
	out := fillOnce(t, links, caps, paths)
	for i, r := range out {
		if r != units.Gbps/2 {
			t.Fatalf("flow %d rate = %v, want 500Mbps", i, r)
		}
	}
}

func TestWaterfillCapLimited(t *testing.T) {
	// One flow capped below its fair share: the other picks up the slack.
	links := []units.Rate{units.Gbps}
	caps := []units.Rate{100 * units.Mbps, 10 * units.Gbps}
	paths := [][]int32{{0}, {0}}
	out := fillOnce(t, links, caps, paths)
	if out[0] != 100*units.Mbps {
		t.Fatalf("capped flow rate = %v, want 100Mbps", out[0])
	}
	if out[1] != 900*units.Mbps {
		t.Fatalf("elastic flow rate = %v, want 900Mbps", out[1])
	}
}

func TestWaterfillTwoBottlenecks(t *testing.T) {
	// Classic progressive-filling example: flows A:{0}, B:{0,1}, C:{1},
	// link 0 = 1G, link 1 = 3G. Link 0 binds first: A=B=500M; C then takes
	// the rest of link 1: 2.5G (capped at its cap).
	links := []units.Rate{units.Gbps, 3 * units.Gbps}
	caps := []units.Rate{10 * units.Gbps, 10 * units.Gbps, 10 * units.Gbps}
	paths := [][]int32{{0}, {0, 1}, {1}}
	out := fillOnce(t, links, caps, paths)
	if out[0] != units.Gbps/2 || out[1] != units.Gbps/2 {
		t.Fatalf("link-0 flows = %v/%v, want 500Mbps each", out[0], out[1])
	}
	if want := 3*units.Gbps - units.Gbps/2; out[2] != want {
		t.Fatalf("flow C = %v, want %v", out[2], want)
	}
}

func TestWaterfillRespectsCapacity(t *testing.T) {
	// Random-ish mesh: total allocation on every link must not exceed its
	// capacity, and every flow must get a positive rate.
	links := []units.Rate{units.Gbps, 2 * units.Gbps, 500 * units.Mbps}
	caps := make([]units.Rate, 6)
	paths := [][]int32{{0, 1}, {1, 2}, {0, 2}, {2}, {1}, {0}}
	for i := range caps {
		caps[i] = units.Rate(1+i) * 300 * units.Mbps
	}
	out := fillOnce(t, links, caps, paths)
	sums := make([]int64, len(links))
	for f, p := range paths {
		if out[f] <= 0 {
			t.Fatalf("flow %d got no rate", f)
		}
		if out[f] > caps[f] {
			t.Fatalf("flow %d exceeds its cap: %v > %v", f, out[f], caps[f])
		}
		for _, l := range p {
			sums[l] += int64(out[f])
		}
	}
	for l, s := range sums {
		// The filler may oversubscribe a saturated link by at most one bps
		// per flow (integer floor shares with the 1bps progress clamp).
		if s > int64(links[l])+int64(len(paths)) {
			t.Fatalf("link %d oversubscribed: %d > %d", l, s, int64(links[l]))
		}
	}
}

func TestWaterfillReuseIsClean(t *testing.T) {
	// The same filler must give identical answers when its scratch is
	// reused across differently-shaped problems.
	var w waterfiller
	links := []units.Rate{units.Gbps}
	caps := []units.Rate{10 * units.Gbps, 10 * units.Gbps}
	paths := [][]int32{{0}, {0}}
	out1 := make([]units.Rate, 2)
	w.fill(links, caps, paths, out1)

	big := make([][]int32, 40)
	bigCaps := make([]units.Rate, 40)
	for i := range big {
		big[i] = []int32{0}
		bigCaps[i] = units.Gbps
	}
	tmp := make([]units.Rate, 40)
	w.fill(links, bigCaps, big, tmp)

	out2 := make([]units.Rate, 2)
	w.fill(links, caps, paths, out2)
	if out1[0] != out2[0] || out1[1] != out2[1] {
		t.Fatalf("scratch reuse changed the answer: %v vs %v", out1, out2)
	}
}

// refFiller is the solver as it stood before link shares were cached: every
// round rescans all links and divides rem/nf for each. It is kept verbatim
// as the oracle that pins the allocation bit for bit, including the
// lowest-index tie-break and the share < 1 clamp.
type refFiller struct {
	rem    []int64
	nf     []int32
	heads  []int32
	cursor []int32
	items  []int32
	order  []int32
	frozen []bool
}

func (w *refFiller) fillReference(linkCap []units.Rate, flowCap []units.Rate, flowPath [][]int32, out []units.Rate) {
	n, nl := len(flowCap), len(linkCap)
	w.grow(n, nl)
	rem, nf := w.rem[:nl], w.nf[:nl]
	for i, c := range linkCap {
		rem[i], nf[i] = int64(c), 0
	}
	for _, path := range flowPath[:n] {
		for _, l := range path {
			nf[l]++
		}
	}
	heads, cursor := w.heads[:nl+1], w.cursor[:nl]
	heads[0] = 0
	for i := 0; i < nl; i++ {
		heads[i+1] = heads[i] + nf[i]
		cursor[i] = heads[i]
	}
	if cap(w.items) < int(heads[nl]) {
		w.items = make([]int32, heads[nl])
	}
	items := w.items[:heads[nl]]
	for f, path := range flowPath[:n] {
		for _, l := range path {
			items[cursor[l]] = int32(f)
			cursor[l]++
		}
	}
	order, frozen := w.order[:n], w.frozen[:n]
	for f := 0; f < n; f++ {
		order[f], frozen[f] = int32(f), false
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := flowCap[order[a]], flowCap[order[b]]
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})

	unfrozen := n
	freeze := func(f int32, r units.Rate) {
		out[f], frozen[f] = r, true
		unfrozen--
		for _, l := range flowPath[f] {
			rem[l] -= int64(r)
			nf[l]--
		}
	}
	ptr := 0
	for unfrozen > 0 {
		// Smallest fair share over links still carrying unfrozen flows.
		share, bl := int64(math.MaxInt64), -1
		for l := 0; l < nl; l++ {
			if nf[l] > 0 {
				if s := rem[l] / int64(nf[l]); s < share {
					share, bl = s, l
				}
			}
		}
		if bl < 0 {
			// No shared link left: remaining flows are cap-limited only.
			for ; ptr < n; ptr++ {
				if f := order[ptr]; !frozen[f] {
					freeze(f, flowCap[f])
				}
			}
			break
		}
		if share < 1 {
			share = 1 // a saturated link still moves every flow forward
		}
		// Freeze every flow whose cap sits at or under the current share:
		// removing a flow at rate <= share only raises shares, so the batch
		// is safe without rescanning links between freezes.
		progressed := false
		for ptr < n {
			f := order[ptr]
			if frozen[f] {
				ptr++
				continue
			}
			if int64(flowCap[f]) > share {
				break
			}
			freeze(f, flowCap[f])
			ptr++
			progressed = true
		}
		if progressed {
			continue
		}
		// The bottleneck link binds: its unfrozen flows get the share.
		for _, f := range items[heads[bl]:heads[bl+1]] {
			if !frozen[f] {
				freeze(f, units.Rate(share))
			}
		}
	}
}

// grow resizes the scratch slices for n flows over nl links; items is sized
// in fill once the edge count is known.
func (w *refFiller) grow(n, nl int) {
	if cap(w.rem) < nl {
		w.rem = make([]int64, nl)
		w.nf = make([]int32, nl)
		w.cursor = make([]int32, nl)
	}
	if cap(w.heads) < nl+1 {
		w.heads = make([]int32, nl+1)
	}
	if cap(w.order) < n {
		w.order = make([]int32, n)
		w.frozen = make([]bool, n)
	}
}

// fillCase is one random problem for the oracle comparison.
type fillCase struct {
	links []units.Rate
	caps  []units.Rate
	paths [][]int32
}

// randomFillCase draws n flows over nl links. Capacities and caps come from
// a few discrete values so ties are the norm, and reach down to a few bps so
// the share < 1 clamp fires and rem goes negative.
func randomFillCase(rng *rand.Rand, n, nl int) fillCase {
	linkVals := []units.Rate{1, 2, 3, 7, 100, units.Mbps, units.Gbps, 10 * units.Gbps}
	capVals := []units.Rate{1, 2, 5, 100, 500 * units.Kbps, units.Gbps, 10 * units.Gbps, 40 * units.Gbps}
	// Each case keeps to a window of the value tables, so some are all-tiny
	// (clamp-heavy), some all-large, some mixed.
	lo := rng.Intn(len(linkVals))
	span := 1 + rng.Intn(len(linkVals)-lo)
	c := fillCase{
		links: make([]units.Rate, nl),
		caps:  make([]units.Rate, n),
		paths: make([][]int32, n),
	}
	for l := range c.links {
		c.links[l] = linkVals[lo+rng.Intn(span)]
	}
	maxHops := 6
	if nl < maxHops {
		maxHops = nl
	}
	for f := range c.caps {
		c.caps[f] = capVals[rng.Intn(len(capVals))]
		hops := 1 + rng.Intn(maxHops)
		path := make([]int32, hops)
		for h, l := range rng.Perm(nl)[:hops] {
			path[h] = int32(l)
		}
		c.paths[f] = path
	}
	return c
}

// checkAgainstReference solves c with both fillers, each reusing its scratch
// from whatever shape came before, and requires identical allocations.
func checkAgainstReference(t *testing.T, w *waterfiller, ref *refFiller, c fillCase) {
	t.Helper()
	n := len(c.caps)
	got, want := make([]units.Rate, n), make([]units.Rate, n)
	w.fill(c.links, c.caps, c.paths, got)
	ref.fillReference(c.links, c.caps, c.paths, want)
	for f := range want {
		if got[f] != want[f] {
			t.Fatalf("flow %d of %d over %d links: rate %d, reference %d\nlinks %v\ncaps %v\npaths %v",
				f, n, len(c.links), got[f], want[f], c.links, c.caps, c.paths)
		}
	}
}

func TestWaterfillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var w waterfiller
	var ref refFiller
	checkAgainstReference(t, &w, &ref, randomFillCase(rng, 0, 5))
	for i := 0; i < 3000; i++ {
		checkAgainstReference(t, &w, &ref, randomFillCase(rng, rng.Intn(201), 1+rng.Intn(40)))
	}
}

func FuzzWaterfillMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1))
	f.Add(int64(2), uint8(200), uint8(40))
	f.Add(int64(3), uint8(17), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, flows, links uint8) {
		rng := rand.New(rand.NewSource(seed))
		var w waterfiller
		var ref refFiller
		// The fuzzed shape first, then two drawn ones on the same scratch.
		checkAgainstReference(t, &w, &ref, randomFillCase(rng, int(flows)%201, 1+int(links)%40))
		for i := 0; i < 2; i++ {
			checkAgainstReference(t, &w, &ref, randomFillCase(rng, rng.Intn(201), 1+rng.Intn(40)))
		}
	})
}

// slowStartMix builds the recompute the engine actually produces on a k=8
// fat tree: n flows, a third of them long and limited only by their path
// peak, the rest in slow start at IW·2^epoch/RTT over four epochs. The fill
// then alternates cap batches with link freezes instead of running on link
// freezes alone.
func slowStartMix(tb testing.TB, n int) fillCase {
	topo, err := NewFatTree(8, 10*units.Gbps)
	if err != nil {
		tb.Fatal(err)
	}
	c := fillCase{
		links: make([]units.Rate, topo.NumLinks()),
		caps:  make([]units.Rate, n),
		paths: make([][]int32, n),
	}
	for i := range c.links {
		c.links[i] = topo.Capacity(i)
	}
	base := units.Throughput(10*1460, 40*units.Microsecond)
	hosts := topo.Hosts()
	for i := 0; i < n; i++ {
		src := (i * 37) % hosts
		dst := (i*53 + 1) % hosts
		if dst == src {
			dst = (dst + 1) % hosts
		}
		c.paths[i] = topo.Path(src, dst, uint64(i), nil)
		c.caps[i] = 10 * units.Gbps
		if i%3 != 0 {
			if ss := base << uint(i%4); ss < c.caps[i] {
				c.caps[i] = ss
			}
		}
	}
	return c
}

func TestWaterfillSteadyStateAllocs(t *testing.T) {
	c := slowStartMix(t, 512)
	out := make([]units.Rate, len(c.caps))
	var w waterfiller
	// AllocsPerRun's own warm-up call grows the scratch.
	if a := testing.AllocsPerRun(20, func() { w.fill(c.links, c.caps, c.paths, out) }); a != 0 {
		t.Fatalf("warmed fill allocates %v times per call, want 0", a)
	}
}

func BenchmarkWaterfill(b *testing.B) {
	const n = 512
	c := slowStartMix(b, n)
	out := make([]units.Rate, n)
	var w waterfiller
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.fill(c.links, c.caps, c.paths, out)
	}
	b.ReportMetric(float64(b.N)*float64(n)/b.Elapsed().Seconds(), "flowfills/s")
}
