package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported percentile
// for it to mean something: with fewer, one stall moves it.
const tailBeyond = 10

// maxPercentile is the highest percentile a sample of n supports: the
// one with at least tailBeyond samples above it (0 when none does).
// p99 therefore needs 1000 samples.
func maxPercentile(n int) float64 {
	if n <= tailBeyond {
		return 0
	}
	return 100 * (1 - float64(tailBeyond)/float64(n))
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place): the smallest value with at least p% of the sample at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	// The epsilon keeps a rank that is a whole number in exact
	// arithmetic from rounding up.
	rank := int(math.Ceil(p/100*float64(len(xs)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median of xs (sorted in place); the mean of the middle pair for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs (sorted in
// place) by the exclusive method of Python's statistics.quantiles(xs,
// n=4), the rule run sets are judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	sort.Float64s(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
