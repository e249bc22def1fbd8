package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// harnessVersion changes whenever a workload, a metric definition or the
// way a number is taken changes: results of different versions are not
// comparable and -compare refuses them.
const harnessVersion = 3

// runSeconds is the measured length of one run (BENCHMARK.json
// run_seconds; the driver passes it back as --seconds).
const runSeconds = 20

// clients is the load generator's concurrency: two goroutines on two
// keep-alive connections, the sandbox's core count, never more.
const clients = 2

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef names one workload and why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"engine_stream", "cold-compiled vgg9, one caller, batch 1: sim+ap do all the work, serve/cluster none; single-stream engine claims land here (resnet18 is recorded per layer)"},
	{"engine_batch", "same artifact, 8 distinct inputs per call: the engine's N-wide im2col path and larger arenas; batching claims land here and must not cost engine_stream"},
	{"serve_saturated", "closed loop, 2 clients, tinycnn x4 variants, 8 inputs/request via router: HTTP, JSON, router hop and batcher hand-offs set capacity; the engine is a sliver"},
	{"serve_paced", "open loop, 200 req/s, 1 input/request via router: every request waits out the batch window alone, so latency is window plus path overhead"},
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"infer_per_s", "infer/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_infer", "ms", "lower", 0.25},
	{"alloc_kb_per_infer", "KB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package), reported
// with --trace 1. A metric that does not apply to a workload reads 0
// there: serve.* and cluster.* on the engine workloads, sim.* engine
// timings on the serving ones.
var perLayer = []metricDef{
	// Compile side, timed once during set-up on the workload's model.
	{Name: "model.build_s", Unit: "s", Better: "lower"},
	{Name: "core.compile_cold_s", Unit: "s", Better: "lower"},
	{Name: "core.compile_warm_s", Unit: "s", Better: "lower"},
	{Name: "core.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.addsub_ops", Unit: "count", Better: "lower"},
	{Name: "core.cse_reduction", Unit: "ratio", Better: "lower"},
	{Name: "ap.audit_s", Unit: "s", Better: "lower"},
	{Name: "ap.plan_ops", Unit: "count", Better: "lower"},
	{Name: "dataflow.check_s", Unit: "s", Better: "lower"},
	{Name: "dataflow.cert_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.first_call_s", Unit: "s", Better: "lower"},
	{Name: "xbar.energy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.oracle_s", Unit: "s", Better: "lower"},
	{Name: "bench.inputs_s", Unit: "s", Better: "lower"},
	// Modeled clock: what sim.Analyze says the RTM-AP would take. Exact;
	// a simulator speed-up must leave both identical.
	{Name: "model_latency_ms", Unit: "ms_modeled", Better: "lower"},
	{Name: "model_energy_uj", Unit: "uJ_modeled", Better: "lower"},

	// Engine (internal/sim + internal/ap), engine workloads only.
	{Name: "sim.ms_per_infer_b1", Unit: "ms", Better: "lower"},
	{Name: "sim.ms_per_infer_b8", Unit: "ms", Better: "lower"},
	{Name: "sim.batch_gain", Unit: "ratio", Better: "higher"},
	{Name: "sim.conv_ms_per_infer", Unit: "ms", Better: "lower"},
	{Name: "sim.other_ms_per_infer", Unit: "ms", Better: "lower"},
	{Name: "sim.top_layer_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.hook_coverage", Unit: "ratio", Better: "higher"},
	{Name: "sim.host_ns_per_addsub", Unit: "ns", Better: "lower"},
	{Name: "sim.host_per_modeled", Unit: "ratio", Better: "lower"},
	{Name: "sim.allocs_per_infer", Unit: "count", Better: "lower"},
	{Name: "model.forward_int_ms", Unit: "ms", Better: "lower"},
	// The paper's headline network, recorded in engine_stream's traced run.
	{Name: "resnet18.admit_cold_s", Unit: "s", Better: "lower"},
	{Name: "resnet18.ms_per_infer_b1", Unit: "ms", Better: "lower"},
	{Name: "resnet18.ms_per_infer_b8", Unit: "ms", Better: "lower"},
	{Name: "resnet18.batch_gain", Unit: "ratio", Better: "higher"},
	{Name: "resnet18.first_call_b8_s", Unit: "s", Better: "lower"},

	// Node (internal/serve), serving workloads only.
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.handler_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "serve.http_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.residual_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "serve.decode_est_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.encode_est_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.queue_wall_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.admit_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.node_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower"},
	{Name: "serve.expired_total", Unit: "count", Better: "lower"},
	{Name: "serve.failed_total", Unit: "count", Better: "lower"},
	{Name: "serve.requeued_total", Unit: "count", Better: "lower"},

	// Router (internal/cluster), policy (internal/dispatch), tracer
	// (internal/trace), serving workloads only.
	{Name: "cluster.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.hop_cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "cluster.route_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.retries_total", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges_total", Unit: "count", Better: "lower"},
	{Name: "cluster.sheds_total", Unit: "count", Better: "lower"},
	{Name: "cluster.node_balance", Unit: "ratio", Better: "lower"},
	{Name: "cluster.ring_owners_ns", Unit: "ns", Better: "lower"},
	{Name: "dispatch.former_ns_per_ticket", Unit: "ns", Better: "lower"},
	{Name: "dispatch.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower"},

	// Harness and runtime, every workload. Per-layer times are as
	// measured; bench.host_factor says how much slower than a quiet host
	// the host ran while they were taken.
	{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lateness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lateness_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.explained_share", Unit: "ratio", Better: "higher"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
}

// benchmarkSpec renders BENCHMARK.json from the tables above; the
// committed file is this output, and a test holds the two together.
func benchmarkSpec() []byte {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []specMetric  `json:"end_to_end"`
		PerLayer   []specLayer   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, specMetric(d))
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, specLayer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers always marshal
	}
	return append(out, '\n')
}

// specMetric is metricDef with the bound always written (0 included).
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// sample is one reported metric value with the number of observations
// behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

// metricSet collects the metrics of one run by declared name.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]sample
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, vals: map[string]sample{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

// set records a value; an undeclared name is a bug in the harness.
func (m *metricSet) set(name string, v float64, n int) {
	d, ok := m.defs[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in spec.go", name))
	}
	m.vals[name] = sample{Value: v, Unit: d.Unit, N: n}
}

func (m *metricSet) get(name string) float64 { return m.vals[name].Value }

// complete returns every declared metric. A per-layer metric the
// workload does not touch reads 0; with requireAll (end-to-end runs) a
// missing metric is an error.
func (m *metricSet) complete(requireAll bool) (map[string]sample, error) {
	out := make(map[string]sample, len(m.defs))
	var missing []string
	for name, d := range m.defs {
		s, ok := m.vals[name]
		if !ok {
			missing = append(missing, name)
			s = sample{Unit: d.Unit}
		}
		out[name] = s
	}
	if requireAll && len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}
