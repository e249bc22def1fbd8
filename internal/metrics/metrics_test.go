package metrics

import (
	"bytes"
	"strings"
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

// The exposition is cumulative: bucket counts never decrease in le order,
// an observation past the largest bound lands only in +Inf, +Inf equals
// _count, and a labelled series closes its label set on _sum and _count.
func TestHistogramExpositionCumulative(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, s := range []float64{0.0005, 0.001, 0.02, 0.02, 7} {
		h.Observe(s)
	}
	var buf bytes.Buffer
	h.Write(&buf, "x_seconds", "")
	h.Write(&buf, "x_seconds", `stage="1",`)
	want := `x_seconds_bucket{le="0.001"} 2
x_seconds_bucket{le="0.01"} 2
x_seconds_bucket{le="0.1"} 4
x_seconds_bucket{le="+Inf"} 5
x_seconds_sum 7.0415
x_seconds_count 5
x_seconds_bucket{stage="1",le="0.001"} 2
x_seconds_bucket{stage="1",le="0.01"} 2
x_seconds_bucket{stage="1",le="0.1"} 4
x_seconds_bucket{stage="1",le="+Inf"} 5
x_seconds_sum{stage="1"} 7.0415
x_seconds_count{stage="1"} 5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	// A clone renders on its own: later observations do not reach it.
	c := h.Clone()
	h.Observe(1)
	buf.Reset()
	c.Write(&buf, "x_seconds", "")
	if !strings.Contains(buf.String(), "x_seconds_count 5\n") {
		t.Errorf("clone saw a later observation:\n%s", buf.String())
	}
}
