package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample such that at least p% of the samples are at or below
// it. xs is sorted in place. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the nearest-rank 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
