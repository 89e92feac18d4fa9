package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailSupport is how many samples must lie beyond a reported percentile.
const tailSupport = 10

// percentile picks the nearest-rank p-th percentile (0 < p < 1) and reports
// whether the sample supports it: at least tailSupport samples lie beyond
// the chosen one. For p = 0.9 that is n >= 100. An unsupported percentile is
// omitted by callers, never extrapolated.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1], n-rank >= tailSupport
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the driver computes spreads with.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// maxPairwise is the largest difference between any two runs as a share of
// the median.
func maxPairwise(xs []float64) float64 {
	s := sorted(xs)
	return (s[len(s)-1] - s[0]) / math.Abs(median(xs))
}
