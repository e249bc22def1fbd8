package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtmap/internal/metrics"
	"rtmap/internal/trace"
	"rtmap/internal/workload"
)

// TestHistogramExpositionCumulative parses the rendered Prometheus text
// and checks every histogram family the hard way: bucket counts must be
// monotone nondecreasing in le order, the +Inf bucket must equal the
// series' _count, and _sum/_count lines must exist — the invariants a
// scraper's quantile math silently depends on.
func TestHistogramExpositionCumulative(t *testing.T) {
	reg := new(metrics.Registry)
	m := NewMetrics(reg, 2)
	// Spread observations across buckets, including one past the largest
	// finite bound (overflow lands only in +Inf).
	for _, s := range []float64{0.0001, 0.0007, 0.003, 0.02, 0.3, 5.0} {
		m.ObserveRequest(time.Duration(s*float64(time.Second)), 2, false)
	}
	for i := 0; i < 4; i++ {
		m.ObserveItemPhases(time.Millisecond, 100*time.Microsecond, 3*time.Millisecond)
	}
	m.ObserveExec(0, 2*time.Millisecond)
	m.ObserveExec(1, 40*time.Millisecond)
	m.ObserveExec(1, 4*time.Second) // overflow in a labeled series

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}

	bucketRE := regexp.MustCompile(`^(\w+)_bucket\{(.*)le="([^"]+)"\} (\d+)$`)
	countRE := regexp.MustCompile(`^(\w+)_count(?:\{(.+)\})? (\d+)$`)
	sumRE := regexp.MustCompile(`^(\w+)_sum(?:\{(.+)\})? `)

	type state struct {
		last    int64
		buckets int
		infVal  int64
		infSeen bool
	}
	series := map[string]*state{} // family + non-le labels
	counts := map[string]int64{}
	sums := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if mm := bucketRE.FindStringSubmatch(line); mm != nil {
			key := mm[1] + "{" + strings.TrimSuffix(mm[2], ",") + "}"
			v, err := strconv.ParseInt(mm[4], 10, 64)
			if err != nil {
				t.Fatalf("unparsable bucket count in %q: %v", line, err)
			}
			st := series[key]
			if st == nil {
				st = &state{}
				series[key] = st
			}
			if v < st.last {
				t.Errorf("%s: bucket le=%q count %d < previous %d (not cumulative)", key, mm[3], v, st.last)
			}
			st.last = v
			st.buckets++
			if mm[3] == "+Inf" {
				st.infSeen, st.infVal = true, v
			}
			continue
		}
		if mm := countRE.FindStringSubmatch(line); mm != nil {
			v, _ := strconv.ParseInt(mm[3], 10, 64)
			key := mm[1] + "{" + mm[2] + "}"
			counts[key] = v
			continue
		}
		if mm := sumRE.FindStringSubmatch(line); mm != nil {
			sums[mm[1]+"{"+mm[2]+"}"] = true
		}
	}

	wantSeries := []string{
		`rtmap_request_seconds{}`,
		`rtmap_request_phase_seconds{phase="wait"}`,
		`rtmap_request_phase_seconds{phase="queue"}`,
		`rtmap_request_phase_seconds{phase="exec"}`,
		`rtmap_stage_exec_seconds{stage="0"}`,
		`rtmap_stage_exec_seconds{stage="1"}`,
	}
	for _, key := range wantSeries {
		st := series[key]
		if st == nil {
			t.Fatalf("exposition has no bucket series %s:\n%s", key, buf.String())
		}
		if st.buckets != len(latencyBuckets)+1 {
			t.Errorf("%s: %d bucket lines, want %d", key, st.buckets, len(latencyBuckets)+1)
		}
		if !st.infSeen {
			t.Errorf("%s: no le=\"+Inf\" bucket", key)
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("%s: no _count line", key)
		} else if st.infVal != cnt {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, st.infVal, cnt)
		}
		if !sums[key] {
			t.Errorf("%s: no _sum line", key)
		}
	}
	if got := series[`rtmap_request_seconds{}`].infVal; got != 6 {
		t.Errorf("rtmap_request_seconds +Inf = %d, want 6 observations", got)
	}
	if got := series[`rtmap_stage_exec_seconds{stage="1"}`].infVal; got != 2 {
		t.Errorf("stage 1 +Inf = %d, want 2 (including the overflow observation)", got)
	}
}

// getTraces fetches /debug/traces with the given query string.
func getTraces(t *testing.T, url, query string) trace.Dump {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: HTTP %d", resp.StatusCode)
	}
	var out trace.Dump
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// tracedSpans warms tinycnn up on the server, posts a two-sample bit-exact
// request under trace ID id, and returns that trace's spans from
// /debug/traces, grouped by name.
func tracedSpans(t *testing.T, url, id string) map[string][]trace.Span {
	t.Helper()
	sh, _ := ZooShape("tinycnn")
	// Warm up untraced so the traced request's wait span measures batching,
	// not model admission (compilation happens inside the first handler).
	if _, resp := postInfer(t, url, InferRequest{Model: "tinycnn", BitExact: true,
		Inputs: workload.InputData(sh, 1, 20)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d", resp.StatusCode)
	}

	body, err := json.Marshal(&InferRequest{Model: "tinycnn", BitExact: true,
		Inputs: workload.InputData(sh, 2, 21)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced infer: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != id {
		t.Fatalf("response echoes trace ID %q, want %q", got, id)
	}

	got := getTraces(t, url, "?trace="+id)
	byName := map[string][]trace.Span{}
	for _, sp := range got.Spans {
		if sp.Model != "tinycnn" {
			t.Errorf("span %s carries model %q, want tinycnn", sp.Name, sp.Model)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["layer"]) == 0 {
		t.Fatal("no layer spans despite TraceLayerSample=1")
	}
	for _, sp := range byName["layer"] {
		if sp.Detail == "" {
			t.Errorf("layer span without a layer name: %+v", sp)
		}
	}
	return byName
}

// wantSpanCounts fails unless the trace holds exactly the given number of
// spans of each listed name.
func wantSpanCounts(t *testing.T, byName map[string][]trace.Span, want map[string]int) {
	t.Helper()
	for name, n := range want {
		if len(byName[name]) != n {
			t.Fatalf("%d %q spans, want %d (multi-sample requests must dedupe): %+v",
				len(byName[name]), name, n, byName)
		}
	}
}

// TestTracedShardedRequestEndToEnd is the tentpole's acceptance test: a
// request carrying an X-Rtmap-Trace header through a sharded + replicated
// server yields spans whose phase durations tile the reported http wall
// time, visible via /debug/traces. The same request through the default
// one-stage pipeline shows a whole-model dispatch instead.
func TestTracedShardedRequestEndToEnd(t *testing.T) {
	_, one := testServer(t, Options{Devices: 2, MaxBatch: 4, Window: time.Millisecond, TraceLayerSample: 1})
	unsharded := tracedSpans(t, one.URL, "e2e-trace-0")
	wantSpanCounts(t, unsharded, map[string]int{"http": 1, "wait": 1, "queue": 1, "exec": 1, "stage": 0, "hop": 0})
	if why := unsharded["wait"][0].Detail; why != "idle" {
		t.Errorf("wait span says the batch closed by %q, want \"idle\": a lone request on an idle fleet", why)
	}
	for _, sp := range append(unsharded["exec"], unsharded["layer"]...) {
		if sp.Stage != -1 || sp.Replica != -1 {
			t.Errorf("one-stage %s span on stage %d replica %d, want -1/-1 (unpinned whole-model dispatch)", sp.Name, sp.Stage, sp.Replica)
		}
	}

	_, ts := testServer(t, Options{Devices: 4, ShardStages: 2, Replicas: 2,
		MaxBatch: 4, Window: time.Millisecond, TraceLayerSample: 1})
	byName := tracedSpans(t, ts.URL, "e2e-trace-1")
	wantSpanCounts(t, byName, map[string]int{"http": 1, "wait": 1, "queue": 1, "hop": 1, "stage": 2, "exec": 0})
	s0, s1 := byName["stage"][0], byName["stage"][1]
	if s0.Stage+s1.Stage != 1 || s0.Stage == s1.Stage {
		t.Fatalf("stage spans cover stages %d and %d, want 0 and 1", s0.Stage, s1.Stage)
	}
	if s0.Device == s1.Device {
		t.Errorf("both stages ran on device %d; pipeline stages must be pinned to distinct devices", s0.Device)
	}
	if s0.Replica != s1.Replica || s0.Replica < 0 {
		t.Errorf("stage spans on replicas %d/%d, want one non-negative replica", s0.Replica, s1.Replica)
	}

	// The phase spans decompose the request's server-side wall time: their
	// sum must not exceed the http span (they nest inside the handler), and
	// from enqueue to the end of the last stage they leave no phase out.
	// (What the http span holds beyond that is decode, admission and
	// encode — no longer a small remainder now that an idle fleet makes
	// nothing wait.)
	httpDur := time.Duration(byName["http"][0].Dur)
	var phaseSum time.Duration
	for _, name := range []string{"wait", "queue", "hop", "stage"} {
		for _, sp := range byName[name] {
			phaseSum += time.Duration(sp.Dur)
		}
	}
	if phaseSum > httpDur+time.Millisecond {
		t.Errorf("phase spans sum to %v, exceeding the http span %v", phaseSum, httpDur)
	}
	last := s0
	if s1.Stage > s0.Stage {
		last = s1
	}
	served := time.Duration(last.Start + last.Dur - byName["wait"][0].Start)
	if phaseSum < served/2 {
		t.Errorf("phase spans sum to %v, under half of enqueue→end of execution %v — the decomposition lost a phase", phaseSum, served)
	}

	// Filters: the model filter keeps these spans, an unknown trace drops
	// everything.
	if byModel := getTraces(t, ts.URL, "?model=tinycnn"); len(byModel.Spans) == 0 {
		t.Error("model filter dropped every span")
	}
	if none := getTraces(t, ts.URL, "?trace=absent"); len(none.Spans) != 0 {
		t.Errorf("unknown trace filter returned %d spans, want 0", len(none.Spans))
	}
}

// A server with TraceSample=1 traces header-less requests and reports the
// generated ID back to the client so it can find its spans.
func TestSampledRequestGetsGeneratedID(t *testing.T) {
	s, ts := testServer(t, Options{MaxBatch: 2, Window: time.Millisecond, TraceSample: 1})
	sh, _ := ZooShape("tinycnn")
	_, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn",
		Inputs: workload.InputData(sh, 1, 5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get(TraceHeader)
	if id == "" {
		t.Fatal("sampled request's response carries no trace ID header")
	}
	found := false
	for _, sp := range s.Tracer().Snapshot() {
		if sp.TraceID == id && sp.Name == "http" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no http span recorded for sampled trace %q", id)
	}
}

// An over-long client trace ID must be ignored, not recorded (bounded
// label cardinality against hostile headers).
func TestOversizedTraceHeaderIgnored(t *testing.T) {
	_, ts := testServer(t, Options{MaxBatch: 2, Window: time.Millisecond})
	sh, _ := ZooShape("tinycnn")
	body, err := json.Marshal(&InferRequest{Model: "tinycnn",
		Inputs: workload.InputData(sh, 1, 6)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, strings.Repeat("x", 65))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "" {
		t.Fatalf("oversized trace ID echoed back as %q, want dropped", got)
	}
}

// TestFailoverRequeueKeepsTrace extends the failover suite: a traced
// batch bounced off a dead device must keep its trace ID through the
// requeue, emit exactly one requeue span recording the dead device, and
// finish with an exec span on the surviving replica.
func TestFailoverRequeueKeepsTrace(t *testing.T) {
	s := New(Options{Devices: 2, Replicas: 2, MaxBatch: 4, Window: time.Millisecond, Logf: t.Logf})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadDev := e.placed().replicas[0].devs[0]
	if err := s.FailDevice(deadDev); err != nil {
		t.Fatal(err)
	}

	const id = "failover-trace"
	sh, _ := ZooShape("tinycnn")
	ins := workload.Inputs(sh, 3, 11)
	items := make([]*item, len(ins))
	for i, in := range ins {
		items[i] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1), trace: id}
	}
	b := newAPBatch(e, items)
	f := s.fleet
	f.mu.Lock()
	d := f.devices[deadDev]
	d.queued++
	f.pending++
	f.mu.Unlock()
	d.ch <- b

	for i, it := range items {
		res := <-it.res
		if res.err != nil {
			t.Fatalf("item %d failed across failover: %v", i, res.err)
		}
		if res.info.Requeues != 1 {
			t.Errorf("item %d: %d requeues, want 1", i, res.info.Requeues)
		}
	}

	var requeues, execs []trace.Span
	for _, sp := range s.Tracer().Snapshot() {
		if sp.TraceID != id {
			continue
		}
		switch sp.Name {
		case "requeue":
			requeues = append(requeues, sp)
		case "exec":
			execs = append(execs, sp)
		}
	}
	if len(requeues) != 1 {
		t.Fatalf("%d requeue spans, want exactly 1 (deduped per batch)", len(requeues))
	}
	rq := requeues[0]
	if rq.Device != deadDev {
		t.Errorf("requeue span records device %d, want the dead device %d", rq.Device, deadDev)
	}
	if rq.Detail != "attempt 1" {
		t.Errorf("requeue span detail %q, want \"attempt 1\"", rq.Detail)
	}
	if len(execs) != 1 {
		t.Fatalf("%d exec spans, want 1", len(execs))
	}
	if execs[0].Device == deadDev {
		t.Errorf("exec span on the dead device %d", deadDev)
	}
	if execs[0].Replica != e.placed().replicas[1].id {
		t.Errorf("exec span on replica %d, want surviving replica %d", execs[0].Replica, e.placed().replicas[1].id)
	}
}

// BenchmarkServeSubmitTraced is BenchmarkServeSubmit with one traced
// item per batch — the steady-state cost of span recording on the
// submit→execute→deliver path (compare the two in bench output: equal
// allocs/op; `go run ./benchmark --workload serve_saturated --trace 1`
// prices the same thing end to end as trace.overhead_share and
// trace.record_ns).
func BenchmarkServeSubmitTraced(b *testing.B) {
	s := New(Options{Devices: 1, MaxBatch: 8, Window: time.Millisecond})
	defer s.Shutdown(context.Background())
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sh, _ := ZooShape("tinycnn")
	ins := workload.Inputs(sh, 8, 7)
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]*item, len(ins))
		for j, in := range ins {
			items[j] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
		}
		items[0].trace = ids[i%len(ids)]
		s.fleet.Submit(newAPBatch(e, items))
		for _, it := range items {
			if res := <-it.res; res.err != nil {
				b.Fatal(res.err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ins)), "ns/infer")
}
