package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dynaq/internal/units"
)

// FlowGen draws flow sizes from a CDF and inter-arrival gaps from an
// exponential distribution whose rate loads the bottleneck to a target
// fraction of its capacity — the client/server request model of §V-A2
// ("the inter-arrival time of generated requests follows a Poisson
// process").
type FlowGen struct {
	rng    *rand.Rand
	cdf    *CDF
	lambda float64 // flow arrivals per second
}

// NewFlowGen builds a generator that drives utilization load·capacity using
// flow sizes from cdf. Load is the paper's x-axis (0.3–0.8).
func NewFlowGen(seed int64, cdf *CDF, capacity units.Rate, load float64) (*FlowGen, error) {
	if cdf == nil {
		return nil, fmt.Errorf("workload: flow generator needs a CDF")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("workload: capacity %v must be positive", capacity)
	}
	if load <= 0 || load > 1 {
		return nil, fmt.Errorf("workload: load %v out of (0, 1]", load)
	}
	mean := cdf.Mean()
	if mean <= 0 {
		return nil, fmt.Errorf("workload: CDF %q has zero mean", cdf.Name())
	}
	// λ [flows/s] = load · C [bits/s] / (8 · E[size] [bytes]).
	lambda := load * float64(capacity) / (8 * float64(mean))
	// The largest draw, −ln(2⁻⁵³)/λ ≈ 37/λ, must stay well inside 64-bit
	// picoseconds.
	if maxSeconds := float64(units.MaxDuration) / float64(units.Second); lambda < 64/maxSeconds {
		return nil, fmt.Errorf("workload: load %v offers %v flows/s, too few to time in 64-bit picoseconds", load, lambda)
	}
	return &FlowGen{
		rng:    rand.New(rand.NewSource(seed)),
		cdf:    cdf,
		lambda: lambda,
	}, nil
}

// Lambda returns the arrival rate in flows per second.
func (g *FlowGen) Lambda() float64 { return g.lambda }

// NextSize draws the next flow's size.
func (g *FlowGen) NextSize() units.ByteSize { return g.cdf.Sample(g.rng) }

// NextInterarrival draws the next exponential inter-arrival gap.
func (g *FlowGen) NextInterarrival() units.Duration {
	u := g.rng.Float64()
	//dynaqlint:allow float-eq rejecting the exact 0 that rand.Float64 can return before taking log(u)
	for u == 0 {
		u = g.rng.Float64()
	}
	return units.Seconds(-math.Log(u) / g.lambda)
}

// Rand exposes the generator's seeded source for correlated choices
// (source/destination picking) so an experiment stays one-seed
// reproducible.
func (g *FlowGen) Rand() *rand.Rand { return g.rng }
