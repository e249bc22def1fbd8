package main

import (
	"fmt"
	"time"
)

// env is what one run of one workload is given and what it fills in.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	rec     *recorder
	m       *metricSet

	attempted, failed int
	// slices is the measured window's per-slice table as measured, kept
	// for the run's document with the host factor of its middle slice and
	// whether throughput and latency were scaled by it.
	slices     []sliceRow
	hostFactor float64
	cpuBound   bool
	// selfTestOK records that the correctness check fired on a flipped
	// logit before it was trusted with real results.
	selfTestOK bool
}

// sliceCount splits the measured phase into slices of about a quarter of
// a second, three at least (the self-tests run for less than a second):
// the host probe runs between slices, and the host changes pace faster
// than once a second.
func (e *env) sliceCount() int { return max(3, int(e.seconds*4+0.5)) }

func (e *env) sliceLen() time.Duration {
	return time.Duration(e.seconds / float64(e.sliceCount()) * float64(time.Second))
}

// warmLen is the warm-up before the measured slices: 2 s, shorter only
// when the whole run is (self-tests).
func (e *env) warmLen() time.Duration {
	return min(2*time.Second, time.Duration(e.seconds/5*float64(time.Second)))
}

// share is a fraction of the run length, used to size the traced legs.
func (e *env) share(f float64) time.Duration {
	return time.Duration(e.seconds * f * float64(time.Second))
}

// opSample is one operation as the caller saw it: one RunFunctionalBatch
// call or one HTTP request.
type opSample struct {
	latency  time.Duration // from the due time when the loop is open
	lateness time.Duration // open loop: how late the generator fired
	failed   bool
	// From the response's BatchInfo and headers (serving only).
	batchSize int
	queueNS   int64
	node      string
	traceID   string
	spanID    int
}

// sliceStat is what one slice consumed and produced.
type sliceStat struct {
	wall, cpu  time.Duration
	allocBytes uint64
	mallocs    uint64
	ops        int     // operations
	infers     int     // verified inferences
	p50MS      float64 // median latency of the slice's operations, as measured
	host       float64 // host factor: the probe bursts before and after over probeQuiet
}

// sliceRow is a slice as the run's document shows it.
type sliceRow struct {
	WallS   float64 `json:"wall_s"`
	CPUMS   float64 `json:"cpu_ms"`
	AllocKB float64 `json:"alloc_kb"`
	Infers  int     `json:"infers"`
	OpP50MS float64 `json:"op_p50_ms"`
	Host    float64 `json:"host_factor"`
}

// window is a measured phase: every operation's latency, and per-slice
// totals.
type window struct {
	latMS  []float64 // as measured, slice after slice
	failed int
	slices []sliceStat
	gcs    uint32
	pause  time.Duration
	// ops is every operation in full, for the traced legs that ask for it.
	// An end-to-end window does not keep them: a saturated run makes 50 000,
	// and their 5 MB would be a sixth of the peak_rss_mb it reports.
	ops []opSample
}

// measure runs n slices of length d on one schedule: slice i is due to
// end i+1 lengths after the start, however far earlier slices overran.
// run executes operations until the deadline passes and returns them, so
// a slice ends when its last operation completes; process counters are
// read and the host is probed only between slices, while nothing runs.
// keepOps keeps every operation in full.
func measure(n int, d time.Duration, infersPerOp int, keepOps bool, run func(deadline time.Time) []opSample) window {
	var w window
	probe := probeBurst()
	start := time.Now()
	for i := range n {
		before := readCounters()
		ops := run(start.Add(time.Duration(i+1) * d))
		after := readCounters()
		next := probeBurst()
		st := sliceStat{
			host:       hostFactor(probe, next),
			wall:       after.at.Sub(before.at),
			cpu:        after.cpu - before.cpu,
			allocBytes: after.alloc - before.alloc,
			mallocs:    after.mallocs - before.mallocs,
			ops:        len(ops),
		}
		probe = next
		for _, op := range ops {
			w.latMS = append(w.latMS, ms(op.latency))
			if op.failed {
				w.failed++
			} else {
				st.infers += infersPerOp
			}
		}
		st.p50MS = percentile(w.latMS[len(w.latMS)-len(ops):], 50)
		if keepOps {
			w.ops = append(w.ops, ops...)
		}
		w.slices = append(w.slices, st)
		w.gcs += after.gcCount - before.gcCount
		w.pause += after.gcPause - before.gcPause
	}
	return w
}

// untilDeadline turns a single operation into a slice runner: at least
// one operation, then more until the deadline has passed.
func untilDeadline(op func() opSample) func(time.Time) []opSample {
	return func(deadline time.Time) []opSample {
		var out []opSample
		for {
			out = append(out, op())
			if !time.Now().Before(deadline) {
				return out
			}
		}
	}
}

// n is the number of operations in the window.
func (w window) n() int { return len(w.latMS) }

func (w window) infers() int {
	n := 0
	for _, s := range w.slices {
		n += s.infers
	}
	return n
}

// perSlice maps every slice that verified at least one inference through f.
func (w window) perSlice(f func(sliceStat) float64) []float64 {
	var out []float64
	for _, s := range w.slices {
		if s.infers > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

// Throughput and latency come in two readings. As measured: what the
// clock said. At quiet pace (quiet true): each slice's reading scaled back
// by its host factor, which is what a workload that is bound by the CPU
// would have read had no neighbour been in the way. Slices are aggregated
// by their median, latency is pooled over all operations.

// atPace divides a time by the host factor when quiet is asked for.
func atPace(x, host float64, quiet bool) float64 {
	if quiet {
		return x / host
	}
	return x
}

func (w window) inferPerS(quiet bool) float64 {
	return median(w.perSlice(func(s sliceStat) float64 {
		return float64(s.infers) / atPace(s.wall.Seconds(), s.host, quiet)
	}))
}

// cpuMSPerInfer is CPU time, which a slower host stretches whatever the
// loop: always at quiet pace.
func (w window) cpuMSPerInfer() float64 {
	return median(w.perSlice(func(s sliceStat) float64 { return ms(s.cpu) / s.host / float64(s.infers) }))
}

// opPercentileMS is the nearest-rank p-th percentile latency of an
// operation over all slices.
func (w window) opPercentileMS(p float64, quiet bool) float64 {
	lat := make([]float64, 0, len(w.latMS))
	for _, s := range w.slices {
		for _, l := range w.latMS[len(lat) : len(lat)+s.ops] {
			lat = append(lat, atPace(l, s.host, quiet))
		}
	}
	return percentile(lat, p)
}

// hostFactorMedian is the middle slice's host factor.
func (w window) hostFactorMedian() float64 {
	return median(w.perSlice(func(s sliceStat) float64 { return s.host }))
}

// count records the window's operations in the run's attempted/failed
// totals.
func (e *env) count(w window) {
	e.attempted += w.n()
	e.failed += w.failed
}

// reportEndToEnd fills the end-to-end metrics from the set-up time and
// the measured window. CPU time is always reported at quiet pace.
// cpuBound says that the workload keeps the CPU busy (a closed loop): its
// throughput and latency are then reported at quiet pace too. An open loop
// far below capacity waits on timers, which no neighbour slows, and its
// throughput and latency are reported as measured.
func (e *env) reportEndToEnd(setup time.Duration, setups int, w window, cpuBound bool) error {
	e.count(w)
	for _, st := range w.slices {
		e.slices = append(e.slices, sliceRow{st.wall.Seconds(), ms(st.cpu), float64(st.allocBytes) / 1024, st.infers, st.p50MS, st.host})
	}
	if w.infers() == 0 {
		return fmt.Errorf("no slice verified a single inference (%d operations, %d failed)", w.n(), w.failed)
	}
	e.hostFactor, e.cpuBound = w.hostFactorMedian(), cpuBound
	e.m.set("setup_s", setup.Seconds(), setups)
	e.m.set("infer_per_s", w.inferPerS(cpuBound), len(w.slices))
	e.m.set("op_p50_ms", w.opPercentileMS(50, cpuBound), w.n())
	e.m.set("cpu_ms_per_infer", w.cpuMSPerInfer(), len(w.slices))
	e.m.set("alloc_kb_per_infer", median(w.perSlice(func(s sliceStat) float64 {
		return float64(s.allocBytes) / 1024 / float64(s.infers)
	})), len(w.slices))
	e.m.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// reportClientLayer fills the per-layer metrics every workload shares
// from an untraced window of the traced run.
func (e *env) reportClientLayer(w window) {
	e.count(w)
	e.m.set("client.op_p90_ms", percentile(w.latMS, 90), w.n())
	e.m.set("client.op_p99_ms", percentile(w.latMS, 99), w.n())
	e.m.set("failed_share", float64(w.failed)/float64(max(w.n(), 1)), w.n())
	e.hostFactor = w.hostFactorMedian()
	e.m.set("bench.host_factor", e.hostFactor, len(w.slices))
	e.m.set("runtime.gc_count", float64(w.gcs), 1)
	e.m.set("runtime.gc_pause_ms", ms(w.pause), int(w.gcs))
}
