package metrics

import (
	"fmt"
	"io"
)

// Histogram is one classic Prometheus histogram over the upper bounds
// (seconds, le="+Inf" implied) it was built with. Observations are
// stored per-bucket and accumulated into cumulative counts at render
// time; the +Inf line is cross-checked against the observation count so
// a storage/render mismatch can never ship a histogram whose buckets
// disagree with its _count.
type Histogram struct {
	buckets []float64
	counts  []int64 // per-bucket; counts[len(buckets)] is the overflow
	sum     float64
	count   int64
}

// NewHistogram returns an empty histogram over buckets (ascending).
func NewHistogram(buckets []float64) Histogram {
	return Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

// Observe records one measurement in seconds.
func (h *Histogram) Observe(s float64) {
	i := len(h.buckets)
	for j, ub := range h.buckets {
		if s <= ub {
			i = j
			break
		}
	}
	h.counts[i]++
	h.sum += s
	h.count++
}

// Clone snapshots the histogram for render outside the owner's lock.
func (h *Histogram) Clone() Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return c
}

// Write renders the histogram's bucket/sum/count series. name is the
// metric family; labels, when non-empty, is a comma-terminated label
// prefix (e.g. `phase="wait",`) composed with the le label. The
// cumulative +Inf count must equal the observation count — a mismatch
// means the bucket accounting broke, an internal invariant per the
// panic-vs-error boundary in docs/ARCHITECTURE.md.
func (h *Histogram) Write(w io.Writer, name, labels string) {
	var cum int64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, fmt.Sprintf("%g", ub), cum)
	}
	cum += h.counts[len(h.buckets)]
	if cum != h.count {
		panic(fmt.Sprintf("metrics: histogram %s{%s} +Inf count %d != observation count %d",
			name, labels, cum, h.count))
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels[:len(labels)-1], h.sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels[:len(labels)-1], h.count)
}
