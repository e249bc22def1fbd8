package metrics

import (
	"testing"
	"time"
)

// The rank is ceil(p·n) clamped into the sample, whatever the element
// type: empty samples give the zero value, p = 0 the minimum, p = 1 the
// maximum, and n = 2 at p = 0.5 the lower of the two.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{nil, 1, 0},
		{[]float64{5}, 0, 5},
		{[]float64{5}, 0.5, 5},
		{[]float64{5}, 1, 5},
		{[]float64{1, 9}, 0, 1},
		{[]float64{1, 9}, 0.5, 1},
		{[]float64{1, 9}, 0.95, 9},
		{[]float64{1, 9}, 1, 9},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.51, 3},
	} {
		if got := NearestRank(tc.sorted, tc.p); got != tc.want {
			t.Errorf("NearestRank(%v, %g) = %g, want %g", tc.sorted, tc.p, got, tc.want)
		}
	}
	// The router's p95 over its 20..512-sample windows used the integer
	// rank (95·n + 99)/100; the float rank must pick the same element.
	for n := 1; n <= 512; n++ {
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		if got, want := NearestRank(sorted, 0.95), time.Duration((95*n+99)/100); got != want {
			t.Fatalf("n=%d: p95 rank %d, integer nearest rank %d", n, got, want)
		}
	}
}
