package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpecMatchesBenchmarkJSON holds the committed BENCHMARK.json to the
// metric tables and to the limits the benchmark contract sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkSpec()) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with: go run ./benchmark --spec > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloadDefs))
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but nothing runs it", w.Name)
		}
	}
	if len(workloads) != len(workloadDefs) {
		t.Errorf("%d workloads run, %d declared", len(workloads), len(workloadDefs))
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.Bound)
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower" || d.Bound != largest) {
			t.Errorf("setup_s must be in s, better lower, with the largest bound: %+v", d)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// smokeRun runs a workload briefly and returns the metric names of its
// result line.
func smokeRun(t *testing.T, name string, w func(*env) error, traced bool) []string {
	t.Helper()
	var stdout bytes.Buffer
	if err := runOne(&stdout, name, w, 7, 0.9, traced, t.TempDir()); err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, line.Correct, line.Attempted, line.Failed)
	}
	var names []string
	for n, m := range line.Metrics {
		if m.Value == nil || m.Unit == "" || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("%s: metric %s has no finite value and unit", name, n)
		}
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// TestSmokeEmitsDeclaredNames runs a serving workload and the engine
// workload (on tinycnn, so it takes milliseconds) with 0.3 s slices, both
// ways, and holds the emitted metric names to the declared ones.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving topology; skipped with -short")
	}
	declared := func(defs []metricDef) []string {
		var names []string
		for _, d := range defs {
			names = append(names, d.Name)
		}
		slices.Sort(names)
		return names
	}
	runs := map[string]func(*env) error{
		"serve_saturated": serveWorkload{paced: false}.run,
		"serve_paced":     serveWorkload{paced: true}.run,
		"engine_smoke":    engineWorkload{model: "tinycnn", batch: 8}.run,
	}
	for name, w := range runs {
		if got, want := smokeRun(t, name, w, false), declared(endToEnd); !slices.Equal(got, want) {
			t.Errorf("%s --trace 0 emitted %v, declared %v", name, got, want)
		}
		if name == "serve_paced" {
			continue // its traced legs are the saturated ones at another rate
		}
		if got, want := smokeRun(t, name, w, true), declared(perLayer); !slices.Equal(got, want) {
			t.Errorf("%s --trace 1 emitted %v, declared %v", name, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{9, 3}, 50, 3},
		{[]float64{9, 3}, 90, 9},
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred, 99, 99},
		{hundred, 100, 100},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, p%v) = %v, want %v", len(tc.xs), tc.p, got, tc.want)
		}
	}
}

// TestMedianOfSlices holds the aggregation to its rule: the middle slice
// sets throughput and CPU, latency pools every operation, and at quiet
// pace each slice is first scaled back by its own host factor.
func TestMedianOfSlices(t *testing.T) {
	w := window{slices: []sliceStat{
		{wall: time.Second, cpu: 30 * time.Millisecond, infers: 10, host: 1},
		{wall: time.Second, cpu: 10 * time.Millisecond, infers: 30, host: 1}, // the outlier slice
		{wall: time.Second, cpu: 24 * time.Millisecond, infers: 12, host: 1},
		{wall: time.Second}, // verified nothing: left out, not counted as 0
	}}
	if got := w.inferPerS(false); got != 12 {
		t.Errorf("infer_per_s = %v, want the middle slice's 12", got)
	}
	if got := w.cpuMSPerInfer(); got != 2 {
		t.Errorf("cpu_ms_per_infer = %v, want the middle slice's 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}

	// The same work on a host that ran at half pace for two slices of three.
	slow := window{
		slices: []sliceStat{
			{wall: 2 * time.Second, cpu: 40 * time.Millisecond, ops: 1, infers: 10, host: 2},
			{wall: time.Second, cpu: 20 * time.Millisecond, ops: 1, infers: 10, host: 1},
			{wall: 2 * time.Second, cpu: 40 * time.Millisecond, ops: 1, infers: 10, host: 2},
		},
		latMS: []float64{200, 100, 200},
	}
	if got := slow.inferPerS(false); got != 5 {
		t.Errorf("infer_per_s as measured = %v, want 5", got)
	}
	if got := slow.inferPerS(true); got != 10 {
		t.Errorf("infer_per_s at quiet pace = %v, want 10", got)
	}
	if got := slow.cpuMSPerInfer(); got != 2 {
		t.Errorf("cpu_ms_per_infer at quiet pace = %v, want 2", got)
	}
	if got := slow.opPercentileMS(50, false); got != 200 {
		t.Errorf("op_p50_ms as measured = %v, want 200", got)
	}
	if got := slow.opPercentileMS(50, true); got != 100 {
		t.Errorf("op_p50_ms at quiet pace = %v, want 100", got)
	}
	if got := slow.hostFactorMedian(); got != 2 {
		t.Errorf("host factor of the middle slice = %v, want 2", got)
	}
}

// TestHostProbe checks that the probe does its work (a reading far below
// probeQuiet would mean the compiler dropped the loop) and that two
// bursts around nothing give a factor a host can have.
func TestHostProbe(t *testing.T) {
	if took := hostProbe(); took < probeQuiet/10 {
		t.Errorf("one probe took %v: the fixed work is not being done", took)
	}
	if f := hostFactor(probeBurst(), probeBurst()); f < 0.1 || f > 50 {
		t.Errorf("host factor %v between two bursts", f)
	}
	if f, want := hostFactor(690, 690), math.Pow(2, probeExponent); math.Abs(f-want) > 1e-12 {
		t.Errorf("host factor of probes twice as long as probeQuiet = %v, want 2^probeExponent = %v", f, want)
	}
	if f := hostFactor(345, 345); f != 1 {
		t.Errorf("host factor of quiet probes = %v, want 1", f)
	}
	quiet, err := atQuietPace(func() error { time.Sleep(10 * time.Millisecond); return nil })
	if err != nil || quiet <= 0 || quiet > 100*time.Millisecond {
		t.Errorf("atQuietPace of a 10 ms sleep: %v, err %v", quiet, err)
	}
}

// TestSlicesKeepOneSchedule runs operations that overrun every slice: the
// slices must end on the schedule set at the start, not drift by the sum
// of the overruns.
func TestSlicesKeepOneSchedule(t *testing.T) {
	start := time.Now()
	w := measure(10, 20*time.Millisecond, 1, false, untilDeadline(func() opSample {
		time.Sleep(15 * time.Millisecond)
		return opSample{latency: 15 * time.Millisecond}
	}))
	// On schedule: 200 ms and at most one operation more. Each slice on
	// its own clock would take two operations, 300 ms in all.
	if took := time.Since(start); took > 270*time.Millisecond {
		t.Errorf("10 slices of 20 ms took %v: the overruns added up", took)
	}
	if len(w.slices) != 10 || w.n() < 10 || w.ops != nil {
		t.Errorf("%d slices, %d operations, %d kept in full; want 10 slices with an operation each and none kept", len(w.slices), w.n(), len(w.ops))
	}
}

// TestQuartileSpread checks against Python's statistics.quantiles(n=4):
// for 1..10 it gives [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},  // overlaps a by 20
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 130}, // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 10, EndNS: 20},
	}
	selfTimes(spans)
	// Children cover [10,70) and [90,100): 70 of the parent's 100.
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 40, 4: 40, 5: 10} {
		if got := spans[id-1].SelfNS; got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
}

// stubRequests is one single-input request and a server that answers it
// correctly after running hook.
func stubRequests(t *testing.T, hook func(n int64)) ([]request, *httptest.Server) {
	t.Helper()
	reqs, _, _, err := buildRequests(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := cannedResponse(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hook(served.Add(1))
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return reqs[:1], srv
}

// TestOpenLoopChargesStallToLaterRequests stalls one response by 200 ms
// under a 200 req/s open loop. Timed from the send, only the stalled
// request would look slow (coordinated omission); timed from the due
// time, every request the stall delayed shows it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	reqs, srv := stubRequests(t, func(n int64) {
		if n == 5 {
			time.Sleep(200 * time.Millisecond)
		}
	})
	g := newLoadgen(srv.Client().Transport, reqs, 1, func(*request) string { return srv.URL })
	ops := g.run(time.Now().Add(500*time.Millisecond), 200)
	if len(ops) < 98 || len(ops) > 100 {
		t.Errorf("sent %d requests, want the (about) 100 that were due", len(ops))
	}
	slow, late := 0, 0
	for _, op := range ops {
		if op.failed {
			t.Fatal("a stub response failed the check")
		}
		if op.latency > 50*time.Millisecond {
			slow++
		}
		if op.lateness > 50*time.Millisecond {
			late++
		}
	}
	// The stalled client's sends are 10 ms apart: after a 200 ms stall the
	// next ~14 are due more than 50 ms before they can go out.
	if slow < 10 || late < 10 {
		t.Errorf("%d requests show the stall in their latency, %d in their lateness; want at least 10 each", slow, late)
	}
}

// TestCheckFiresOnFlippedLogit proves the correctness check end to end:
// a response with one logit off by one bit is a failed operation.
func TestCheckFiresOnFlippedLogit(t *testing.T) {
	reqs, srv := stubRequests(t, func(int64) {})
	url := func(*request) string { return srv.URL }
	if op := newLoadgen(srv.Client().Transport, reqs, 1, url).do(&reqs[0], time.Time{}); op.failed {
		t.Fatal("the correct response was rejected")
	}
	if !reqs[0].want[0].checkFires() {
		t.Error("checkFires did not fire")
	}
	wrong := reqs[0]
	wrong.want = []reference{{logits: slices.Clone(reqs[0].want[0].logits)}}
	wrong.want[0].logits[0] ^= 1
	if op := newLoadgen(srv.Client().Transport, reqs, 1, url).do(&wrong, time.Time{}); !op.failed {
		t.Error("a response differing from the reference in one logit passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "infer_per_s", Better: "higher", Bound: 0.10}
	s := func(spread float64, vs ...float64) series {
		return series{Values: vs, Median: median(vs), Spread: spread}
	}
	for _, tc := range []struct {
		d         metricDef
		base, cur series
		want      string
	}{
		{lower, s(0.01, 100), s(0.01, 105), "ok"},
		{lower, s(0.01, 100), s(0.01, 111), "worse"},
		{lower, s(0.01, 100), s(0.01, 50), "ok"},
		{higher, s(0.01, 100), s(0.01, 89), "worse"},
		{higher, s(0.01, 100), s(0.01, 120), "ok"},
		{lower, s(0.30, 90, 110), s(0.01, 100, 101), "unresolved"},
		{lower, s(0.30, 90, 110), s(0.01, 80, 85), "ok"}, // every new run beats every base run
	} {
		if got := verdictOf(tc.d, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s base %v new %v: verdict %q, want %q", tc.d.Name, tc.base.Values, tc.cur.Values, got, tc.want)
		}
	}
}
