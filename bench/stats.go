package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q*n from rounding up past an exact rank (0.9*100 is
// 90.00000000000001 in floating point).
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// quantile returns the q-quantile of xs by nearest rank. xs is sorted in
// place; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1]
}

// highestQuantile returns the highest of the standard reporting quantiles
// that leaves at least ten of n samples beyond it; a tail quantile with
// fewer samples past it is set by a handful of outliers.
func highestQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 0.5
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }
