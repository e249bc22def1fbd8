package metrics

import "math"

// NearestRank returns the nearest-rank p-quantile of an ascending sample:
// its ceil(p·n)-th smallest value, the rank clamped into the sample, so
// p = 0, p = 1 and tiny samples (n = 1, 2) are all well defined. An empty
// sample yields the zero value.
func NearestRank[T any](sorted []T, p float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	return sorted[min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)]
}
