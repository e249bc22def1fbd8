package metrics

import "runtime/metrics"

// runtimeSeries maps the process-health families onto runtime/metrics
// samples, read without stopping the world (runtime.ReadMemStats is not).
var runtimeSeries = []struct {
	kind               Kind
	name, help, sample string
}{
	{KindGauge, "rtmap_go_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
	{KindGauge, "rtmap_go_heap_objects_bytes", "Heap memory occupied by live objects and dead objects the collector has not yet freed.", "/memory/classes/heap/objects:bytes"},
	{KindCounter, "rtmap_go_gc_cycles_total", "Completed garbage-collection cycles.", "/gc/cycles/total:gc-cycles"},
	{KindCounter, "rtmap_go_gc_pause_cpu_seconds_total", "Estimated CPU time the application spent paused by the garbage collector (pause wall time x GOMAXPROCS).", "/cpu/classes/gc/pause:cpu-seconds"},
}

// RegisterRuntime declares the Go runtime's own health on r, what both
// serving tiers report beside the modeled physics; read at scrape time.
func RegisterRuntime(r *Registry) {
	fams := make([]*Family, len(runtimeSeries))
	for i, rs := range runtimeSeries {
		fams[i] = r.Declare(rs.kind, rs.name, rs.help)
	}
	r.Collect(func(s *Scrape) {
		samples := make([]metrics.Sample, len(runtimeSeries))
		for i, rs := range runtimeSeries {
			samples[i].Name = rs.sample
		}
		metrics.Read(samples)
		for i, v := range samples {
			switch v.Value.Kind() {
			case metrics.KindUint64:
				s.Int(fams[i], int64(v.Value.Uint64()))
			case metrics.KindFloat64:
				s.Float(fams[i], v.Value.Float64())
			}
		}
	})
}
