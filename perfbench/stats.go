package main

import (
	"math"
	"sort"
)

// The benchmark's statistics. The module has no dependencies, so the
// order statistics every report uses live here: the median, the
// quartiles, and the tail percentile rule (report the highest of p90,
// p75, p50 that still has at least ten samples beyond it).

// quantile returns the q-quantile of xs by linear interpolation between
// the order statistics around position q*(n+1), extrapolating from the
// outermost pair beyond the sample range. This is the "exclusive"
// method of Python's statistics.quantiles, so the benchmark's quartiles
// match the ones its acceptance check computes.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := min(max(int(pos), 1), n-1) // 1-based index of the lower neighbour
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailPercents are the tail levels tried, in percent, highest first.
var tailPercents = []int{90, 75, 50}

// tailQuantile applies the p90 rule: it returns the value at the highest
// tail level that leaves at least ten samples beyond it. With fewer than
// twenty samples no tail level can be estimated, and it falls back to
// the median rather than to the maximum, a single sample.
func tailQuantile(xs []float64) float64 {
	for _, p := range tailPercents {
		if (100-p)*len(xs) >= 10*100 {
			return quantile(xs, float64(p)/100)
		}
	}
	return median(xs)
}
