package main

import (
	"math"
	"sort"
)

// summary is how a metric's samples are reported: the median, the
// quartiles and how many samples they rest on.
type summary struct {
	Median float64
	Q1, Q3 float64
	N      int
}

// quartile returns the i-th quartile (i = 1, 2, 3) of the sorted
// samples xs exactly as Python's statistics.quantiles(xs, n=4) does
// (the "exclusive" method), because that is the rule the acceptance
// of this benchmark is computed by.
func quartile(xs []float64, i int) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	m := n + 1
	j := min(max(i*m/4, 1), n-1)
	delta := float64(i*m - j*4)
	return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return summary{Median: quartile(xs, 2), Q1: quartile(xs, 1), Q3: quartile(xs, 3), N: len(xs)}
}

func median(samples []float64) float64 { return summarize(samples).Median }

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound has to clear.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
