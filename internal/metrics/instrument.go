package metrics

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is an integer counter: one atomic add per observation. The zero
// value is ready, so a struct can hold cells that only a collector renders.
type Counter struct{ n atomic.Int64 }

// Add counts n more.
//
//rtmap:noalloc
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc counts one more.
//
//rtmap:noalloc
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the count so far.
func (c *Counter) Load() int64 { return c.n.Load() }

// FloatCounter counts a real quantity (modeled nanoseconds, picojoules):
// a compare-and-swap loop over the float's bits.
type FloatCounter struct{ bits atomic.Uint64 }

// Add counts v more.
//
//rtmap:noalloc
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram is one classic Prometheus histogram over the upper bounds
// (seconds, le="+Inf" implied) it was declared with. Observations are stored
// per bucket under its own lock and made cumulative at render time.
type Histogram struct {
	buckets []float64 // ascending, fixed at declaration

	mu     sync.Mutex
	counts []int64 // per-bucket; counts[len(buckets)] is the overflow
	sum    float64
	count  int64
}

// Observe records one measurement in seconds.
//
//rtmap:noalloc
func (h *Histogram) Observe(s float64) {
	i := len(h.buckets)
	for j, ub := range h.buckets {
		if s <= ub {
			i = j
			break
		}
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += s
	h.count++
	h.mu.Unlock()
}

// instrument is what a family child renders itself through: it appends
// its sample lines for the series name{labels} (labels pre-rendered,
// possibly empty) and reports whether it has observed anything.
type instrument interface {
	appendSamples(b []byte, name, labels string) ([]byte, bool)
}

func (c *Counter) appendSamples(b []byte, name, labels string) ([]byte, bool) {
	v := c.Load()
	return appendInt(appendSeries(b, name, "", labels, ""), v), v != 0
}

func (c *FloatCounter) appendSamples(b []byte, name, labels string) ([]byte, bool) {
	v := math.Float64frombits(c.bits.Load())
	return appendFloat(appendSeries(b, name, "", labels, ""), v), v != 0
}

// appendSamples renders the bucket/sum/count series. The cumulative +Inf
// count is cross-checked against the observation count, so a histogram
// whose buckets disagree with its _count can never ship: an internal
// invariant, per the panic-vs-error boundary in docs/ARCHITECTURE.md.
func (h *Histogram) appendSamples(b []byte, name, labels string) ([]byte, bool) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	var cum int64
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.buckets) {
			le = strconv.FormatFloat(h.buckets[i], 'g', -1, 64)
		}
		b = appendInt(appendSeries(b, name, "_bucket", labels, le), cum)
	}
	if cum != count {
		panic(fmt.Sprintf("metrics: histogram %s{%s} +Inf count %d != observation count %d",
			name, labels, cum, count))
	}
	b = appendFloat(appendSeries(b, name, "_sum", labels, ""), sum)
	return appendInt(appendSeries(b, name, "_count", labels, ""), count), count != 0
}

// appendSeries renders `name+suffix{labels,le="le"} `, the braces only
// when there is something to put in them.
func appendSeries(b []byte, name, suffix, labels, le string) []byte {
	if le != "" {
		if labels != "" {
			labels += ","
		}
		labels += `le="` + le + `"`
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	return append(b, name+suffix+labels+" "...)
}

// appendInt and appendFloat end a sample line with its value, rendered
// the way %d and %g do.
func appendInt(b []byte, v int64) []byte { return append(strconv.AppendInt(b, v, 10), '\n') }

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}
