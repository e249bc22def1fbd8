package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox is a guest on a shared host, and what a neighbour on the
// same physical core takes away is not reported as steal: the same
// instructions simply take up to 1.9 times as long, for a fraction of a
// second or for minutes. The host probe is a fixed piece of integer work —
// six independent add/shift/xor chains, no memory — timed between the
// slices of a measured phase on every core the load uses. How much longer
// than probeQuiet it takes says how much slower the host is running our
// code right now, and the CPU-bound metrics of a slice are scaled back by
// that factor before the slices are aggregated.

// probeQuiet is what one probe takes on the calibration host (Xeon
// 2.1 GHz) when no neighbour is in the way: the smallest reading of every
// calibration run, 344.9–347 µs. It only fixes the scale: on another CPU
// every scaled metric moves by one constant, for a parent commit and a
// change alike.
const probeQuiet = 345 * time.Microsecond

// probeExponent takes the probe's slowdown to the slowdown of real code.
// The probe keeps every ALU port busy and waits for nothing, which is what
// a busy sibling thread hurts most; code that also waits on memory loses
// less. Over the 80 calibration runs of sets Q1 and Q2 (README) the
// exponent that leaves a workload's readings without a trend in the host's
// pace is 0.75 for engine_batch, 0.85 for engine_stream and serve_paced's
// CPU time and 1.0 for serve_saturated; 0.9 leaves each within ±0.17.
const probeExponent = 0.9

// probeIters sizes one probe.
const probeIters = 200_000

// probesPerBurst is how many probes each core runs between two slices.
const probesPerBurst = 6

// probeSink keeps the compiler from dropping the probe's work.
var probeSink atomic.Uint64

// hostProbe runs the fixed work once and returns how long it took.
func hostProbe() time.Duration {
	start := time.Now()
	a, b, c, d, e, f := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)
	for range probeIters {
		a += a<<3 ^ 0x9e37
		b += b<<5 ^ 0x79b9
		c += c<<7 ^ 0x7f4a
		d += d<<9 ^ 0x7c15
		e += e<<11 ^ 0xf39c
		f += f<<13 ^ 0xc0de
	}
	took := time.Since(start)
	probeSink.Add(a + b + c + d + e + f)
	return took
}

// probeBurst runs probesPerBurst probes on each of `clients` goroutines at
// once — one per core while nothing else runs — and returns the mean over
// the cores of each core's median probe, in microseconds.
func probeBurst() float64 {
	var perCore [clients]float64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			us := make([]float64, probesPerBurst)
			for i := range us {
				us[i] = float64(hostProbe().Nanoseconds()) / 1e3
			}
			perCore[c] = median(us)
		}()
	}
	wg.Wait()
	return mean(perCore[:])
}

// hostFactor is how much slower than on a quiet host our code ran between
// two probe bursts.
func hostFactor(before, after float64) float64 {
	return math.Pow((before+after)/2/(float64(probeQuiet.Nanoseconds())/1e3), probeExponent)
}

// atQuietPace runs f between two probe bursts and returns how long it
// took, scaled back by the host factor.
func atQuietPace(f func() error) (time.Duration, error) {
	before := probeBurst()
	start := time.Now()
	err := f()
	measured := time.Since(start)
	return time.Duration(float64(measured) / hostFactor(before, probeBurst())), err
}
