package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesExclusiveMethod(t *testing.T) {
	// Reference values from Python: statistics.quantiles(xs, n=4) with
	// the default "exclusive" method, and statistics.median.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{3, 3, 3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: got q1=%v med=%v q3=%v, want %v %v %v",
				c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("quantile must not reorder its input")
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 1..n: p90 from 100 samples, p75 from 40, p50 from 20 and below.
	cases := []struct {
		n    int
		want float64
	}{
		{100, 90.9}, {99, 75}, {40, 30.75}, {39, 20}, {20, 10.5}, {19, 10}, {3, 2},
	}
	for _, c := range cases {
		if got := tailQuantile(seq(c.n)); got != c.want {
			t.Errorf("n=%d: %v, want %v", c.n, got, c.want)
		}
	}
}
