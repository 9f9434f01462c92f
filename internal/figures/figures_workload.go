package figures

import (
	"math/rand"
	"sort"

	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// Fig2 reproduces Figure 2 as a table: it samples each production
// workload's CDF and summarizes the distribution's shape and skew. A row per
// workload gives the mean and percentiles of flow size, the fraction of
// flows ≤ 100KB (the paper's "small"), and the fraction of bytes carried by
// flows > 10MB — the heavy-tail property ("90% of bytes are from flows
// larger than 100MB" for data mining).
func Fig2(o experiment.Options) (*Figure, error) {
	n := pick(o, 20000, 200000, 1000000)
	out := &Figure{
		Name:   "fig2",
		Labels: []string{"workload"},
		Columns: []Column{
			{"mean", Size}, {"p50", Size}, {"p90", Size}, {"p99", Size},
			{"flows≤100KB", Percent}, {"bytes from >10MB flows", Percent},
		},
	}
	for _, cdf := range workload.All() {
		rng := rand.New(rand.NewSource(o.Seed))
		sizes := make([]units.ByteSize, n)
		var total, heavy float64
		small := 0
		for i := range sizes {
			s := cdf.Sample(rng)
			sizes[i] = s
			total += float64(s)
			if s > metrics.LargeFlowMin {
				heavy += float64(s)
			}
			if s <= metrics.SmallFlowMax {
				small++
			}
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		q := func(p float64) float64 { return float64(sizes[int(p*float64(n-1))]) }
		out.Rows = append(out.Rows, Row{
			Labels: []string{cdf.Name()},
			Values: []float64{
				float64(units.ByteSize(total / float64(n))), q(0.50), q(0.90), q(0.99),
				float64(small) / float64(n), heavy / total,
			},
		})
	}
	return out, nil
}
