package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// counters is a snapshot of what the process has consumed so far.
type counters struct {
	at      time.Time
	cpu     time.Duration // getrusage user+sys
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64
	gcCount uint32
	gcPause time.Duration
}

// readCounters stops the world briefly (ReadMemStats), so it is called
// only between slices, never inside one.
func readCounters() counters {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return counters{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   mem.TotalAlloc,
		mallocs: mem.Mallocs,
		gcCount: mem.NumGC,
		gcPause: time.Duration(mem.PauseTotalNs),
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0
// where /proc does not offer it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// peakSampler polls goroutine count and live heap while the traced legs
// run. It reads runtime/metrics, which does not stop the world.
type peakSampler struct {
	stop       chan struct{}
	done       sync.WaitGroup
	goroutines int
	heapBytes  uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			p.goroutines = max(p.goroutines, runtime.NumGoroutine())
			metrics.Read(heap)
			if heap[0].Value.Kind() == metrics.KindUint64 {
				p.heapBytes = max(p.heapBytes, heap[0].Value.Uint64())
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// report stops the sampler and records the peaks it saw.
func (p *peakSampler) report(m *metricSet) {
	close(p.stop)
	p.done.Wait()
	m.set("runtime.goroutines_peak", float64(p.goroutines), 1)
	m.set("runtime.heap_peak_mb", float64(p.heapBytes)/(1<<20), 1)
}
