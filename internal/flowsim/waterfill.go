package flowsim

import (
	"cmp"
	"math"
	"slices"

	"dynaq/internal/units"
)

// blockLinks is how many consecutive links share one cached block minimum.
const blockLinks = 16

// waterfiller solves progressive max-min filling: repeatedly freeze the
// binding constraint — either a flow whose own rate cap is below every
// link's fair share, or the bottleneck link with the smallest share — until
// every flow holds a rate. All arithmetic is int64 bps; ties break on the
// lowest index, so the allocation is a pure function of its inputs.
//
// A round costs what the last freeze touched, not a pass over the fabric:
// each link's share rem/nf is cached and recomputed only for the links on a
// frozen flow's path, and the bottleneck is found by comparing one cached
// minimum per block of blockLinks links, then the links of the winning
// block.
//
// The scratch slices live across calls; a steady-state recompute allocates
// nothing once they have grown to the working-set size.
type waterfiller struct {
	rem    []int64 // remaining capacity per link
	nf     []int32 // unfrozen flows per link
	share  []int64 // rem/nf per link, MaxInt64 where nf is 0; padded to whole blocks
	bmin   []int64 // smallest share in each block
	heads  []int32 // CSR offsets: link i's flows are items[heads[i]:heads[i+1]]
	cursor []int32 // CSR fill cursors
	items  []int32
	order  []int32 // flow indices sorted by ascending cap
	frozen []bool
}

// fill computes the allocation of flowCap/flowPath over linkCap into out.
// Every flow must have a positive cap and a non-empty path; out must have
// len(flowCap).
func (w *waterfiller) fill(linkCap []units.Rate, flowCap []units.Rate, flowPath [][]int32, out []units.Rate) {
	n, nl := len(flowCap), len(linkCap)
	nb := (nl + blockLinks - 1) / blockLinks
	w.grow(n, nl, nb)
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
	sh, bmin := w.share[:nb*blockLinks], w.bmin[:nb]
	heads[0] = 0
	for i := range sh {
		sh[i] = math.MaxInt64
		if i < nl {
			heads[i+1] = heads[i] + nf[i]
			cursor[i] = heads[i]
			if nf[i] > 0 {
				sh[i] = rem[i] / int64(nf[i])
			}
		}
	}
	blockMin := func(b int) int64 { return slices.Min(sh[b*blockLinks : (b+1)*blockLinks]) }
	for b := range bmin {
		bmin[b] = blockMin(b)
	}
	if cap(w.items) < int(heads[nl]) {
		w.items = make([]int32, max(int(heads[nl]), 2*cap(w.items)))
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
	// Cap order only decides which flows a threshold admits, so equal caps
	// may land in any order.
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(flowCap[a], flowCap[b]) })

	unfrozen := n
	freeze := func(f int32, r units.Rate) {
		out[f], frozen[f] = r, true
		unfrozen--
		for _, l := range flowPath[f] {
			rem[l] -= int64(r)
			nf[l]--
			old, s := sh[l], int64(math.MaxInt64)
			if nf[l] > 0 {
				s = rem[l] / int64(nf[l])
			}
			sh[l] = s
			// A share usually rises, but the 1 bps clamp below can drive
			// rem negative and a neighbour's share down.
			if b := int(l) / blockLinks; s < bmin[b] {
				bmin[b] = s
			} else if old == bmin[b] && s > old {
				bmin[b] = blockMin(b)
			}
		}
	}
	ptr := 0
	for unfrozen > 0 {
		// Smallest fair share over links still carrying unfrozen flows, the
		// lowest-numbered such link on a tie. With no such link the share
		// stays at MaxInt64 and the cap batch below takes every flow left.
		share, bl := int64(math.MaxInt64), -1
		for b, s := range bmin {
			if s < share {
				share, bl = s, b*blockLinks
			}
		}
		if bl >= 0 {
			for sh[bl] != share {
				bl++
			}
		}
		if share < 1 {
			share = 1 // a saturated link still moves every flow forward
		}
		// Freeze every flow whose cap sits at or under the current share:
		// removing a flow at rate <= share only raises shares, so the batch
		// is safe against the one threshold.
		progressed := false
		for ; ptr < n; ptr++ {
			f := order[ptr]
			if frozen[f] {
				continue
			}
			if int64(flowCap[f]) > share {
				break
			}
			freeze(f, flowCap[f])
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

// grow resizes the scratch slices for n flows over nl links in nb blocks;
// items is sized in fill once the edge count is known. The per-flow slices
// and items grow by doubling, so a flow count climbing to n regrows them
// O(log n) times; the per-link ones are sized once, as the links are fixed.
func (w *waterfiller) grow(n, nl, nb int) {
	if cap(w.heads) < nl+1 {
		w.rem = make([]int64, nl)
		w.nf = make([]int32, nl)
		w.cursor = make([]int32, nl)
		w.heads = make([]int32, nl+1)
		w.share = make([]int64, nb*blockLinks)
		w.bmin = make([]int64, nb)
	}
	if cap(w.order) < n {
		m := max(n, 2*cap(w.order))
		w.order = make([]int32, m)
		w.frozen = make([]bool, m)
	}
}
