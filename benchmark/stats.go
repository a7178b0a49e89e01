package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample set: the smallest sample with at least p of the set at
// or below it. It is an order statistic of the samples, never an
// interpolation, so on known inputs the answer is exact.
func percentile[T ~uint32 | ~float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianOf is the median over rounds of one per-slice value.
func medianOf[S any](rounds []S, value func(S) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = value(r)
	}
	return median(vs)
}
