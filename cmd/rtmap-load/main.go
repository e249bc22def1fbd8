// Command rtmap-load is a load generator for rtmap-serve: it discovers
// the model's input shape from /v1/models, pre-builds a pool of synthetic
// request payloads, drives /v1/infer in closed-loop (fixed concurrency)
// or open-loop (fixed arrival rate) mode, and reports throughput and
// latency percentiles — the serving path's benchmark harness.
//
//	rtmap-load -url http://127.0.0.1:8080 -model tinycnn -duration 5s -concurrency 8
//	rtmap-load -model tinycnn -rate 200 -duration 10s     # open loop, 200 req/s
//	rtmap-load -model tinycnn -batch 4 -bit-exact -json
//	rtmap-load -model tinycnn -trace-sample 16            # trace 1-in-16, join vs server spans
//	rtmap-load -model tinycnn -rate 400 -mix "interactive:50:25,standard:30:100,bulk:20:0"
//
// With -mix, each request carries a priority class and deadline drawn
// from a deterministic 100-slot schedule of class:weight:deadline_ms
// entries (deadline 0 = none). Sheds (HTTP 429) and expiries (HTTP 503
// kind "expired") are counted per class rather than as errors, and the
// report adds goodput: requests that returned 200 within their own
// deadline budget — the serving metric the SLO scheduler optimizes.
//
// With -trace-sample N, one in N requests carries an X-Rtmap-Trace
// header; after the run the generator scrapes the server's /debug/traces
// and joins each sampled request's client wall time against the server's
// phase breakdown (wait/queue/exec/stage/hop), so queueing delay is
// attributable from a single report.
//
// Every outcome is classified into an error taxonomy — ok, http_429,
// http_503, http_4xx, http_5xx, connect_refused, timeout, reset, other —
// reported as a per-category tally, so a failed run says *how* it failed
// (a refused dial and a shed read very differently). -retry N re-fires
// a request up to N times on transient categories (refused, timeout,
// reset, non-expired 503) with capped exponential backoff; the report
// then distinguishes per-attempt latency (each wire round trip) from
// per-request latency (what the caller actually waited, retries and
// backoff included). -rejects-ok treats clean backpressure (429/503) as
// an expected outcome instead of an error — the right stance when
// driving the cluster router, whose load shedding is part of the
// contract being measured.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/metrics"
	"rtmap/internal/serve"
	"rtmap/internal/tensor"
	"rtmap/internal/trace"
	"rtmap/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-load: ")
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "rtmap-serve base URL")
		modelName   = flag.String("model", "tinycnn", "model to load (see /v1/models)")
		bits        = flag.Int("bits", 4, "activation precision")
		sparsity    = flag.Float64("sparsity", 0.8, "weight sparsity")
		seed        = flag.Uint64("seed", 1, "model weight seed (payload seed derives from it)")
		duration    = flag.Duration("duration", 5*time.Second, "measurement duration")
		concurrency = flag.Int("concurrency", 4, "closed-loop worker count")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		batch       = flag.Int("batch", 1, "inputs per request")
		payloads    = flag.Int("payloads", 16, "distinct pre-built payloads cycled through")
		bitExact    = flag.Bool("bit-exact", false, "request bit-exact AP execution instead of the software reference")
		jsonOut     = flag.Bool("json", false, "emit the results as JSON")
		outFile     = flag.String("out", "", "also write the JSON report to this file (BENCH_*.json artifact feed)")
		inspect     = flag.Bool("inspect", false, "print one response's batch accounting (device path, pipeline stages, simulated cost) before the run")
		traceSample = flag.Int("trace-sample", 0, "send an X-Rtmap-Trace header on 1-in-N requests and join client wall time against the server's /debug/traces phase breakdown (0 disables)")
		mixSpec     = flag.String("mix", "", "per-request SLO mix as class:weight:deadline_ms entries, e.g. \"interactive:50:25,standard:30:100,bulk:20:0\" (deadline 0 = none); sheds and expiries count per class, and the report adds goodput")
		retries     = flag.Int("retry", 0, "client-side retries per request on transient failures (refused/timeout/reset/non-expired 503), with capped exponential backoff")
		rejectsOK   = flag.Bool("rejects-ok", false, "count clean backpressure (HTTP 429/503) as rejections rather than errors — for servers/routers whose shedding is expected")
	)
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}

	shape, err := discoverShape(*url, *modelName)
	if err != nil {
		log.Fatal(err)
	}

	bodies := buildPayloads(payloadSpec{
		model: *modelName, bits: *bits, sparsity: *sparsity, seed: *seed,
		bitExact: *bitExact, batch: *batch, n: *payloads, shape: shape,
	})

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}}
	inferURL := *url + "/v1/infer"

	// Warm-up: admit (compile) the model and open connections before the
	// measurement window.
	if _, err := post(client, inferURL, bodies[0], "", nil); err != nil {
		log.Fatalf("warm-up request: %v", err)
	}
	if *inspect {
		if err := inspectOnce(client, inferURL, bodies[0]); err != nil {
			log.Fatalf("inspect request: %v", err)
		}
	}

	var (
		mu          sync.Mutex
		latencies   []time.Duration // per-request: attempts plus retry backoff
		attemptLats []time.Duration // per-attempt: each wire round trip
		categories  = map[string]int64{}
		errs        int
		rejected    int
		retried     int64
		slo         map[string]*classTally
	)
	if mix != nil {
		slo = map[string]*classTally{}
		for _, c := range mix.classes {
			slo[c.name] = &classTally{deadlineMS: c.deadlineMS}
		}
	}
	recordAttempt := func(d time.Duration, category string) {
		mu.Lock()
		attemptLats = append(attemptLats, d)
		categories[category]++
		mu.Unlock()
	}
	record := func(d time.Duration, sc *sloClass, sh shot, err error) {
		cat := classify(sh, err)
		mu.Lock()
		defer mu.Unlock()
		var ct *classTally
		if sc != nil {
			ct = slo[sc.name]
			ct.sent++
		}
		switch cat {
		case "ok":
			latencies = append(latencies, d)
			if ct != nil {
				ct.accepted++
				if sc.deadlineMS == 0 || d.Seconds()*1e3 <= sc.deadlineMS {
					ct.goodput++
				}
			}
		case "http_429", "http_503":
			// Clean backpressure: an error document with Retry-After. With a
			// mix, sheds and expiries are expected per-class outcomes; with
			// -rejects-ok, any of them is an expected rejection; otherwise
			// the legacy contract holds and they fail the run.
			expected := *rejectsOK
			switch {
			case ct == nil:
			case cat == "http_429":
				ct.shed++
				expected = true
			case sh.kind == "expired":
				ct.expired++
				expected = true
			case *rejectsOK:
				ct.shed++
			default:
				ct.failed++
			}
			if expected {
				rejected++
			} else {
				errs++
			}
		default:
			errs++
			if ct != nil {
				ct.failed++
			}
		}
	}

	tj := newTraceJoin(*traceSample)

	// fire issues request i end to end: the attempt/retry loop, per-attempt
	// taxonomy accounting, and the per-request outcome.
	fire := func(i int) {
		id := tj.id()
		sc := mix.next()
		t0 := time.Now()
		var sh shot
		var err error
		for attempt := 0; ; attempt++ {
			a0 := time.Now()
			sh, err = post(client, inferURL, bodies[i%len(bodies)], id, sc)
			recordAttempt(time.Since(a0), classify(sh, err))
			if attempt >= *retries || !retryable(classify(sh, err), sh.kind) {
				break
			}
			mu.Lock()
			retried++
			mu.Unlock()
			backoff := (10 * time.Millisecond) << uint(attempt)
			if backoff > 250*time.Millisecond {
				backoff = 250 * time.Millisecond
			}
			time.Sleep(backoff)
		}
		d := time.Since(t0)
		record(d, sc, sh, err)
		if err == nil && sh.status == http.StatusOK {
			tj.record(id, d)
		}
	}

	start := time.Now()
	deadline := start.Add(*duration)
	if *rate > 0 {
		openLoop(*rate, deadline, fire)
	} else {
		closedLoop(*concurrency, deadline, fire)
	}
	elapsed := time.Since(start)

	report(reportInput{
		model: *modelName, mode: mode(*rate), bitExact: *bitExact,
		batch: *batch, latencies: latencies, errs: errs, elapsed: elapsed,
		attempts: attemptLats, categories: categories,
		rejected: rejected, retried: retried,
		trace: tj.join(*url, *modelName), slo: slo,
	}, *jsonOut, *outFile)
	if errs > 0 {
		os.Exit(1)
	}
}

// classify maps one attempt's outcome onto the error taxonomy: HTTP
// answers by status, transport failures by cause. The categories let a
// failed run say how it failed — connect_refused means nobody listens,
// timeout means something accepted and stalled, http_503 means a node
// answered and declined — which is exactly the distinction the cluster
// chaos gates and the router's retry policy reason about.
func classify(sh shot, err error) string {
	if sh.status != 0 {
		switch {
		case sh.status == http.StatusOK:
			return "ok"
		case sh.status == http.StatusTooManyRequests:
			return "http_429"
		case sh.status == http.StatusServiceUnavailable:
			return "http_503"
		case sh.status >= 500:
			return "http_5xx"
		case sh.status >= 400:
			return "http_4xx"
		}
		return fmt.Sprintf("http_%d", sh.status)
	}
	switch {
	case err == nil:
		return "other" // status 0 with no error should not happen
	case errors.Is(err, syscall.ECONNREFUSED):
		return "connect_refused"
	case errors.Is(err, syscall.ECONNRESET):
		return "reset"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "other"
}

// retryable reports whether an attempt's outcome is transient enough to
// re-fire under -retry: refused dials, timeouts, resets, and non-expired
// 503s (a shedding or draining server invites a retry with Retry-After;
// an expired deadline cannot succeed on one).
func retryable(category, kind string) bool {
	switch category {
	case "connect_refused", "timeout", "reset":
		return true
	case "http_503":
		return kind != "expired"
	}
	return false
}

// sloClass is one -mix entry: a priority class and the deadline budget
// its requests carry (0 = no deadline).
type sloClass struct {
	name       string
	weight     int
	deadlineMS float64
}

// sloMix assigns each request a class from a deterministic 100-slot
// schedule proportional to the entry weights, so two runs with the same
// flags offer the same class sequence regardless of worker interleaving.
type sloMix struct {
	classes  []sloClass
	schedule []*sloClass
	n        atomic.Uint64
}

// parseMix decodes "class:weight:deadline_ms,..." into a mix; an empty
// spec returns nil (SLO headers off).
func parseMix(spec string) (*sloMix, error) {
	if spec == "" {
		return nil, nil
	}
	m := &sloMix{}
	var weights []int
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("entry %q: want class:weight:deadline_ms", part)
		}
		var c sloClass
		c.name = strings.TrimSpace(fields[0])
		if _, err := fmt.Sscanf(fields[1], "%d", &c.weight); err != nil || c.weight <= 0 {
			return nil, fmt.Errorf("entry %q: weight must be a positive integer", part)
		}
		if _, err := fmt.Sscanf(fields[2], "%g", &c.deadlineMS); err != nil || c.deadlineMS < 0 {
			return nil, fmt.Errorf("entry %q: deadline_ms must be a non-negative number", part)
		}
		m.classes = append(m.classes, c)
		weights = append(weights, c.weight)
	}
	for _, c := range dispatch.MixSchedule(weights, 100) {
		m.schedule = append(m.schedule, &m.classes[c])
	}
	return m, nil
}

// next returns the class of the next request. Safe on a nil receiver
// (mix disabled): every request is classless.
func (m *sloMix) next() *sloClass {
	if m == nil {
		return nil
	}
	return m.schedule[(m.n.Add(1)-1)%uint64(len(m.schedule))]
}

// classTally is the client-side per-class ledger; the accounting-audit
// test in internal/serve checks the server agrees with the same sums.
type classTally struct {
	deadlineMS float64
	sent       int64
	accepted   int64
	shed       int64
	expired    int64
	failed     int64
	goodput    int64 // accepted AND inside the class deadline budget
}

func mode(rate float64) string {
	if rate > 0 {
		return "open"
	}
	return "closed"
}

// discoverShape asks the server for the model's input shape, so the
// generator needs no local model build and stays honest about what the
// server actually serves.
func discoverShape(baseURL, model string) (tensor.Shape, error) {
	resp, err := http.Get(baseURL + "/v1/models")
	if err != nil {
		return tensor.Shape{}, fmt.Errorf("querying /v1/models: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tensor.Shape{}, fmt.Errorf("/v1/models: HTTP %d", resp.StatusCode)
	}
	var list struct {
		Available []struct {
			Model     string `json:"model"`
			InputNCHW [4]int `json:"input_nchw"`
		} `json:"available"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return tensor.Shape{}, fmt.Errorf("decoding /v1/models: %w", err)
	}
	for _, m := range list.Available {
		if m.Model == model {
			s := m.InputNCHW
			return tensor.Shape{N: s[0], C: s[1], H: s[2], W: s[3]}, nil
		}
	}
	return tensor.Shape{}, fmt.Errorf("model %q not served at %s", model, baseURL)
}

type payloadSpec struct {
	model    string
	bits     int
	sparsity float64
	seed     uint64
	bitExact bool
	batch    int
	n        int
	shape    tensor.Shape
}

func buildPayloads(s payloadSpec) [][]byte {
	if s.n < 1 {
		s.n = 1
	}
	if s.batch < 1 {
		s.batch = 1
	}
	data := workload.InputData(s.shape, s.n*s.batch, s.seed+1000)
	bodies := make([][]byte, s.n)
	for i := range bodies {
		req := serve.InferRequest{
			Model: s.model, ActBits: s.bits, Sparsity: &s.sparsity, Seed: s.seed,
			BitExact: s.bitExact, Inputs: data[i*s.batch : (i+1)*s.batch],
		}
		b, err := json.Marshal(&req)
		if err != nil {
			log.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

// shot is one request's classified outcome: the HTTP status plus, for
// non-200 answers, the structured error kind the server attached.
type shot struct {
	status int
	kind   string
}

// post fires one request, attaching the trace header and the class's
// SLO headers when set. The returned error covers transport failures
// only — HTTP-level rejections come back classified in the shot, and
// the caller decides whether they are errors (no -mix) or expected
// outcomes (sheds and expiries under a mix). Without a mix (sc nil), a
// non-200 status is also returned as an error to keep the legacy
// contract for warm-up and plain runs.
func post(client *http.Client, url string, body []byte, traceID string, sc *sloClass) (shot, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return shot{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(serve.TraceHeader, traceID)
	}
	if sc != nil {
		req.Header.Set(serve.ClassHeader, sc.name)
		if sc.deadlineMS > 0 {
			req.Header.Set(serve.DeadlineHeader, fmt.Sprintf("%g", sc.deadlineMS))
		}
	}
	resp, err := client.Do(req)
	if err != nil {
		return shot{}, err
	}
	defer resp.Body.Close()
	sh := shot{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return sh, err
		}
		return sh, nil
	}
	var eresp struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err == nil {
		sh.kind = eresp.Kind
	}
	io.Copy(io.Discard, resp.Body)
	if sc == nil {
		return sh, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return sh, nil
}

// closedLoop runs `workers` goroutines that each fire the next request as
// soon as the previous one returns.
func closedLoop(workers int, deadline time.Time, fire func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				fire(i)
			}
		}(w)
	}
	wg.Wait()
}

// openLoop fires requests on a fixed schedule regardless of completions
// (up to a bounded number in flight), which measures latency under a
// target arrival rate rather than a target concurrency.
func openLoop(rate float64, deadline time.Time, fire func(i int)) {
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, 1024)
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; time.Now().Before(deadline); i++ {
		<-tick.C
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fire(i)
		}(i)
	}
	wg.Wait()
}

// traceJoin samples 1-in-N requests with a client-chosen trace ID and,
// after the run, joins each sampled request's client wall time against
// the server-side span breakdown scraped from /debug/traces. IDs carry a
// run-unique prefix so back-to-back runs against one server don't mix.
type traceJoin struct {
	every  int
	prefix string
	n      atomic.Uint64

	mu   sync.Mutex
	wall map[string]time.Duration
}

func newTraceJoin(every int) *traceJoin {
	if every <= 0 {
		return nil
	}
	return &traceJoin{
		every:  every,
		prefix: fmt.Sprintf("load%09x.", time.Now().UnixNano()&0xfffffffff),
		wall:   map[string]time.Duration{},
	}
}

// id returns the trace ID the next request should carry, or "" when that
// request is unsampled. Safe on a nil receiver (tracing disabled).
func (t *traceJoin) id() string {
	if t == nil {
		return ""
	}
	n := t.n.Add(1)
	if n%uint64(t.every) != 0 {
		return ""
	}
	return fmt.Sprintf("%s%d", t.prefix, n)
}

// record stores a sampled request's client-observed wall time.
func (t *traceJoin) record(id string, wall time.Duration) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.wall[id] = wall
	t.mu.Unlock()
}

// join scrapes /debug/traces and aggregates the server's spans for every
// sampled request: wait/queue/http take the max across a trace's spans
// (requeues re-emit them), exec/stage/hop sum (a sharded request spends
// exec time in several stage spans). Returns nil when tracing is off;
// logs and returns a partial report when the scrape fails, so a load run
// never fails on the join.
func (t *traceJoin) join(baseURL, model string) map[string]any {
	if t == nil {
		return nil
	}
	sampled := len(t.wall)
	out := map[string]any{"sampled": sampled, "joined": 0}
	if sampled == 0 {
		return out
	}
	resp, err := http.Get(baseURL + "/debug/traces?model=" + neturl.QueryEscape(model))
	if err != nil {
		log.Printf("trace join: %v", err)
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Printf("trace join: /debug/traces: HTTP %d", resp.StatusCode)
		return out
	}
	var body struct {
		Spans []trace.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		log.Printf("trace join: decoding /debug/traces: %v", err)
		return out
	}

	maxPhases := map[string]bool{"http": true, "wait": true, "queue": true}
	agg := map[string]map[string]time.Duration{} // trace ID -> phase -> ns
	for _, sp := range body.Spans {
		if !strings.HasPrefix(sp.TraceID, t.prefix) {
			continue
		}
		if _, ours := t.wall[sp.TraceID]; !ours {
			continue
		}
		p := agg[sp.TraceID]
		if p == nil {
			p = map[string]time.Duration{}
			agg[sp.TraceID] = p
		}
		d := time.Duration(sp.Dur)
		if maxPhases[sp.Name] {
			if d > p[sp.Name] {
				p[sp.Name] = d
			}
		} else {
			p[sp.Name] += d
		}
	}

	byPhase := map[string][]time.Duration{}
	var walls []time.Duration
	for id, phases := range agg {
		walls = append(walls, t.wall[id])
		for name, d := range phases {
			byPhase[name] = append(byPhase[name], d)
		}
	}
	out["joined"] = len(agg)
	if len(agg) < sampled {
		log.Printf("trace join: %d of %d sampled traces missing from /debug/traces (ring buffer wrapped? raise rtmap-serve -trace-buf)",
			sampled-len(agg), sampled)
	}
	quantiles := func(ds []time.Duration) map[string]float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return map[string]float64{
			"p50": percentileMS(ds, 0.50), "p95": percentileMS(ds, 0.95), "p99": percentileMS(ds, 0.99),
		}
	}
	if len(walls) > 0 {
		out["client_wall_ms"] = quantiles(walls)
	}
	server := map[string]map[string]float64{}
	for name, ds := range byPhase {
		server[name] = quantiles(ds)
	}
	if len(server) > 0 {
		out["server_phase_ms"] = server
	}
	return out
}

type reportInput struct {
	model      string
	mode       string
	bitExact   bool
	batch      int
	latencies  []time.Duration  // per-request wall time of 200s (retries included)
	attempts   []time.Duration  // per-attempt wire round trips, every outcome
	categories map[string]int64 // taxonomy tally across attempts
	errs       int
	rejected   int   // clean backpressure accepted as expected (mix or -rejects-ok)
	retried    int64 // retry attempts fired under -retry
	elapsed    time.Duration
	trace      map[string]any         // traceJoin.join output; nil when -trace-sample is off
	slo        map[string]*classTally // per-class ledger; nil when -mix is off
}

// inspectOnce fires one request and prints the server's batch accounting
// for its first sample: the simulated device (or, for sharded models,
// the pipeline stage count and device path) and the simulated cost.
func inspectOnce(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out.Results) == 0 {
		return fmt.Errorf("response carries no results")
	}
	b := out.Results[0].Batch
	if b.Stages > 0 {
		log.Printf("batch accounting: %d pipeline stages via devices %v, coalesced size %d, sim %.1f ns (%.1f ns/sample), %.1f pJ",
			b.Stages, b.Path, b.Size, b.SimLatencyNS, b.SimPerSampleNS, b.SimEnergyPJ)
	} else {
		log.Printf("batch accounting: device %d, coalesced size %d, sim %.1f ns (%.1f ns/sample), %.1f pJ",
			b.Device, b.Size, b.SimLatencyNS, b.SimPerSampleNS, b.SimEnergyPJ)
	}
	return nil
}

// percentileMS returns the nearest-rank p-quantile of the sorted latency
// sample, in milliseconds.
func percentileMS(sorted []time.Duration, p float64) float64 {
	return metrics.NearestRank(sorted, p).Seconds() * 1e3
}

func report(in reportInput, jsonOut bool, outFile string) {
	sort.Slice(in.latencies, func(i, j int) bool { return in.latencies[i] < in.latencies[j] })
	n := len(in.latencies)
	pct := func(p float64) float64 { return percentileMS(in.latencies, p) }
	var sum time.Duration
	for _, d := range in.latencies {
		sum += d
	}
	meanMS := 0.0
	if n > 0 {
		meanMS = sum.Seconds() * 1e3 / float64(n)
	}
	reqPerSec := float64(n) / in.elapsed.Seconds()
	out := map[string]any{
		"model":       in.model,
		"mode":        in.mode,
		"bit_exact":   in.bitExact,
		"batch":       in.batch,
		"requests":    n,
		"errors":      in.errs,
		"rejected":    in.rejected,
		"elapsed_s":   in.elapsed.Seconds(),
		"req_per_s":   reqPerSec,
		"infer_per_s": reqPerSec * float64(in.batch),
		"latency_ms":  map[string]float64{"mean": meanMS, "p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99), "max": pct(1.0)},
	}
	if len(in.categories) > 0 {
		out["categories"] = in.categories
	}
	// Per-attempt latency diverges from per-request latency exactly when
	// retries fired: each attempt is one wire round trip, the request is
	// what the caller waited (attempts plus backoff).
	if in.retried > 0 {
		sort.Slice(in.attempts, func(i, j int) bool { return in.attempts[i] < in.attempts[j] })
		apct := func(p float64) float64 { return percentileMS(in.attempts, p) }
		out["retries"] = in.retried
		out["attempts"] = len(in.attempts)
		out["attempt_latency_ms"] = map[string]float64{
			"p50": apct(0.50), "p95": apct(0.95), "p99": apct(0.99), "max": apct(1.0),
		}
	}
	if in.trace != nil {
		out["trace"] = in.trace
	}
	var goodputTotal int64
	if in.slo != nil {
		classes := map[string]any{}
		for name, ct := range in.slo {
			classes[name] = map[string]any{
				"deadline_ms": ct.deadlineMS,
				"sent":        ct.sent,
				"accepted":    ct.accepted,
				"shed":        ct.shed,
				"expired":     ct.expired,
				"failed":      ct.failed,
				"goodput":     ct.goodput,
			}
			goodputTotal += ct.goodput
		}
		out["slo"] = map[string]any{
			"classes":       classes,
			"goodput":       goodputTotal,
			"goodput_per_s": float64(goodputTotal) / in.elapsed.Seconds(),
		}
	}
	if outFile != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", outFile)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("%s (%s loop, batch %d, bit_exact=%v): %d requests, %d rejected, %d errors in %.2fs\n",
		in.model, in.mode, in.batch, in.bitExact, n, in.rejected, in.errs, in.elapsed.Seconds())
	fmt.Printf("throughput: %.1f req/s (%.1f inferences/s)\n", reqPerSec, reqPerSec*float64(in.batch))
	fmt.Printf("latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		meanMS, pct(0.50), pct(0.95), pct(0.99), pct(1.0))
	if nonOK := int64(len(in.attempts)) - in.categories["ok"]; nonOK > 0 {
		names := make([]string, 0, len(in.categories))
		for name := range in.categories {
			if name != "ok" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Print("outcomes:")
		for _, name := range names {
			fmt.Printf("  %s %d", name, in.categories[name])
		}
		fmt.Println()
	}
	if in.retried > 0 {
		sort.Slice(in.attempts, func(i, j int) bool { return in.attempts[i] < in.attempts[j] })
		apct := func(p float64) float64 { return percentileMS(in.attempts, p) }
		fmt.Printf("retries: %d (%d attempts total); attempt latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n",
			in.retried, len(in.attempts), apct(0.50), apct(0.95), apct(0.99))
	}
	if in.slo != nil {
		var sentTotal int64
		for _, ct := range in.slo {
			sentTotal += ct.sent
		}
		fmt.Printf("goodput: %.1f req/s in-deadline (%d of %d sent)\n",
			float64(goodputTotal)/in.elapsed.Seconds(), goodputTotal, sentTotal)
		names := make([]string, 0, len(in.slo))
		for name := range in.slo {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ct := in.slo[name]
			fmt.Printf("  %-11s deadline %6.1fms: sent %5d  ok %5d  goodput %5d  shed %5d  expired %5d  failed %3d\n",
				name, ct.deadlineMS, ct.sent, ct.accepted, ct.goodput, ct.shed, ct.expired, ct.failed)
		}
	}
	if in.trace != nil {
		fmt.Printf("trace join: %v sampled, %v joined via /debug/traces\n", in.trace["sampled"], in.trace["joined"])
		if phases, ok := in.trace["server_phase_ms"].(map[string]map[string]float64); ok {
			wall, _ := in.trace["client_wall_ms"].(map[string]float64)
			fmt.Printf("  p50 ms: client %.2f", wall["p50"])
			for _, name := range []string{"http", "wait", "queue", "exec", "stage", "hop"} {
				if q, ok := phases[name]; ok {
					fmt.Printf("  %s %.2f", name, q["p50"])
				}
			}
			fmt.Println()
		}
	}
}
