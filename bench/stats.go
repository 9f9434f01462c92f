package main

import (
	"math"
	"sort"
)

// sample summarizes the per-rep values of one metric. Median is the value
// the benchmark reports; min, max and n say how much to trust it.
type sample struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(unit string, xs []float64) sample {
	if len(xs) == 0 {
		return sample{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{Unit: unit, Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// one wraps a single measured value.
func one(unit string, v float64) sample { return sample{Unit: unit, Median: v, Min: v, Max: v, N: 1} }

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 { return summarize("", xs).Median }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
