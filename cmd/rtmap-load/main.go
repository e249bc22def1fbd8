// Command rtmap-load is a load generator for rtmap-serve: it discovers
// the model's input shape from /v1/models, pre-builds a pool of synthetic
// request payloads, drives /v1/infer in closed-loop (fixed concurrency)
// or open-loop (fixed arrival rate) mode, and reports throughput and
// latency percentiles — the serving path's benchmark harness.
//
//	rtmap-load -url http://127.0.0.1:8080 -model tinycnn -duration 5s -concurrency 8
//	rtmap-load -model tinycnn -rate 200 -duration 10s     # open loop, 200 req/s
//	rtmap-load -model tinycnn -batch 4 -json
//	rtmap-load -model tinycnn -trace-sample 16            # trace 1-in-16, join vs server spans
//	rtmap-load -model tinycnn -rate 400 -mix "interactive:50:25,standard:30:100,bulk:20:0"
//
// The open loop (-rate) keeps a schedule: request i is due at start +
// i/rate, one the pacer wakes up late for is sent at once rather than
// dropped, and latency runs from the due time, so a stall is charged to
// every request it delays. The report says what was offered and sent
// (offered_per_s, sent_per_s) and how late the generator ran (lateness_ms).
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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/loadgen"
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
		jsonOut     = flag.Bool("json", false, "emit the results as JSON")
		outFile     = flag.String("out", "", "also write the JSON report to this file (BENCH_*.json artifact feed)")
		inspect     = flag.Bool("inspect", false, "print one response's batch accounting (device path, pipeline stages, simulated cost) before the run")
		traceSample = flag.Int("trace-sample", 0, "send an X-Rtmap-Trace header on 1-in-N requests and join client wall time against the server's /debug/traces phase breakdown (0 disables)")
		mixSpec     = flag.String("mix", "", "per-request SLO mix as class:weight:deadline_ms entries, e.g. \"interactive:50:25,standard:30:100,bulk:20:0\" (deadline 0 = none); sheds and expiries count per class, and the report adds goodput")
		retries     = flag.Int("retry", 0, "client-side retries per request on transient failures (refused/timeout/reset/non-expired 503), with capped exponential backoff")
		rejectsOK   = flag.Bool("rejects-ok", false, "count clean backpressure (HTTP 429/503) as rejections rather than errors — for servers/routers whose shedding is expected")
	)
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}

	shape, err := discoverShape(*url, *modelName)
	if err != nil {
		log.Fatal(err)
	}

	*batch = max(*batch, 1)
	bodies, err := loadgen.Bodies(
		serve.InferRequest{Model: *modelName, ActBits: *bits, Sparsity: sparsity, Seed: *seed},
		workload.InputData(shape, max(*payloads, 1)**batch, *seed+1000), *batch)
	if err != nil {
		log.Fatal(err)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}}

	// Warm-up: admit (compile) the model and open connections before the
	// measurement window.
	warm := loadgen.Post(context.Background(), client, loadgen.Shot{URL: *url, Body: bodies[0]})
	if err := warm.Failure(); err != nil {
		log.Fatalf("warm-up request: %v", err)
	}
	if *inspect {
		if err := inspectOnce(warm); err != nil {
			log.Fatalf("inspect request: %v", err)
		}
	}

	rep := loadReport{Model: *modelName, Batch: *batch, OfferedPerS: *rate, Categories: map[string]int64{}}
	run := samples{mix: mix, ledger: loadgen.NewLedger(mix)}
	var mu sync.Mutex // guards rep's counters and run's slices
	tj := newTraceJoin(*traceSample)

	// fire issues request i end to end: the attempt/retry loop, per-attempt
	// taxonomy accounting, and the per-request outcome. Latency is owed
	// from due — the schedule's time in the open loop, now in the closed.
	fire := func(i int, due time.Time) {
		shot := loadgen.Shot{URL: *url, Body: bodies[i%len(bodies)], TraceID: tj.id()}
		sc := mix.At(i)
		if sc != nil {
			shot.Class, shot.DeadlineMS = sc.Name, sc.DeadlineMS
		}
		sent := time.Now()
		var o loadgen.Outcome
		for attempt := 0; ; attempt++ {
			a0 := time.Now()
			o = loadgen.Post(context.Background(), client, shot)
			retry := attempt < *retries && o.Retryable()
			mu.Lock()
			run.attempts = append(run.attempts, time.Since(a0))
			rep.Categories[o.Category()]++
			if retry {
				rep.Retries++
			}
			mu.Unlock()
			if !retry {
				break
			}
			time.Sleep(dispatch.Backoff(10*time.Millisecond, 250*time.Millisecond, attempt))
		}
		done := time.Now()
		wall := done.Sub(due)
		run.ledger.Record(sc, o, wall)
		mu.Lock()
		defer mu.Unlock()
		if *rate > 0 {
			run.lateness = append(run.lateness, sent.Sub(due))
		}
		switch {
		case o.Status == http.StatusOK:
			run.latencies = append(run.latencies, wall)
			tj.record(shot.TraceID, done.Sub(sent))
		case o.Backpressure() && (*rejectsOK || sc != nil && (o.Status == http.StatusTooManyRequests || o.Kind == "expired")):
			// Clean backpressure the run expects: any of it under
			// -rejects-ok, a class's sheds and expiries under -mix.
			rep.Rejected++
		default:
			rep.Errors++
		}
	}

	// ctx ends the starting of requests; the ones in flight land.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	start := time.Now()
	if *rate > 0 {
		loadgen.Open(ctx, *rate, 1024, fire)
	} else {
		loadgen.Closed(ctx, *concurrency, func(i int) { fire(i, time.Now()) })
	}
	run.elapsed = time.Since(start)
	cancel()

	rep.Trace = tj.join(*url, *modelName)
	rep.summarize(run)
	rep.write(run, *jsonOut, *outFile)
	if rep.Errors > 0 {
		os.Exit(1)
	}
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
	var body trace.Dump
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
	if len(walls) > 0 {
		out["client_wall_ms"] = quantilesMS(walls)
	}
	server := map[string]map[string]float64{}
	for name, ds := range byPhase {
		server[name] = quantilesMS(ds)
	}
	if len(server) > 0 {
		out["server_phase_ms"] = server
	}
	return out
}

// samples is what a run measured, before loadReport.summarize reduces it.
type samples struct {
	latencies []time.Duration // per-request wall time of 200s, from due (retries included)
	attempts  []time.Duration // per-attempt wire round trips, every outcome
	lateness  []time.Duration // open loop: send − due of every request
	elapsed   time.Duration
	mix       *loadgen.Mix    // nil when -mix is off
	ledger    *loadgen.Ledger // per-request outcomes, per class and in total
}

// loadReport is the JSON report; the CI gates read requests, rejected,
// errors, categories, retries, offered_per_s and sent_per_s by name.
// Errors, Rejected (backpressure the run expects), Retries and Categories
// (across attempts) count as the run goes; summarize fills in the rest.
type loadReport struct {
	Model     string  `json:"model"`
	Mode      string  `json:"mode"`
	Batch     int     `json:"batch"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Rejected  int     `json:"rejected"`
	ElapsedS  float64 `json:"elapsed_s"`
	ReqPerS   float64 `json:"req_per_s"`
	InferPerS float64 `json:"infer_per_s"`
	// Open loop only: the rate asked for (-rate), the rate of calls
	// actually made, and how late the generator made them (send − due).
	OfferedPerS float64            `json:"offered_per_s,omitempty"`
	SentPerS    float64            `json:"sent_per_s,omitempty"`
	LatenessMS  map[string]float64 `json:"lateness_ms,omitempty"`
	LatencyMS   map[string]float64 `json:"latency_ms"`
	Categories  map[string]int64   `json:"categories,omitempty"`
	// Per-attempt latency diverges from per-request latency exactly when
	// retries fired: each attempt is one wire round trip, the request is
	// what the caller waited (attempts plus backoff).
	Retries          int64              `json:"retries,omitempty"`
	Attempts         int                `json:"attempts,omitempty"`
	AttemptLatencyMS map[string]float64 `json:"attempt_latency_ms,omitempty"`
	Trace            map[string]any     `json:"trace,omitempty"`
	SLO              *sloReport         `json:"slo,omitempty"`
}

// sloReport is the -mix section: the per-class ledger and goodput.
type sloReport struct {
	Classes     map[string]classReport `json:"classes"`
	Goodput     int64                  `json:"goodput"`
	GoodputPerS float64                `json:"goodput_per_s"`
}

type classReport struct {
	DeadlineMS    float64 `json:"deadline_ms"`
	loadgen.Tally         // sent, accepted, shed, expired, failed, goodput
}

// inspectOnce prints the server's batch accounting for the first sample
// of an answered request (the warm-up): the simulated device (or, for
// sharded models, the stage count and device path) and the simulated cost.
func inspectOnce(o loadgen.Outcome) error {
	var out serve.InferResponse
	if err := json.Unmarshal(o.Body, &out); err != nil {
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

// quantilesMS sorts ds in place and returns its p50/p95/p99 in ms.
func quantilesMS(ds []time.Duration) map[string]float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return map[string]float64{"p50": percentileMS(ds, 0.50), "p95": percentileMS(ds, 0.95), "p99": percentileMS(ds, 0.99)}
}

// summarize reduces the run's samples into the report's derived fields.
func (r *loadReport) summarize(run samples) {
	n, secs := len(run.latencies), run.elapsed.Seconds()
	r.Requests, r.ElapsedS = n, secs
	r.ReqPerS = float64(n) / secs
	r.InferPerS = r.ReqPerS * float64(r.Batch)
	r.LatencyMS = quantilesMS(run.latencies)
	r.LatencyMS["max"] = percentileMS(run.latencies, 1)
	var sum time.Duration
	for _, d := range run.latencies {
		sum += d
	}
	r.LatencyMS["mean"] = sum.Seconds() * 1e3 / float64(max(n, 1))
	r.Mode = "closed"
	if r.OfferedPerS > 0 {
		r.Mode = "open"
		r.SentPerS = float64(run.ledger.Total.Sent) / secs
		r.LatenessMS = quantilesMS(run.lateness)
	}
	if r.Retries > 0 {
		r.Attempts = len(run.attempts)
		r.AttemptLatencyMS = quantilesMS(run.attempts)
		r.AttemptLatencyMS["max"] = percentileMS(run.attempts, 1)
	}
	if run.mix != nil {
		goodput := run.ledger.Total.Goodput
		r.SLO = &sloReport{Classes: map[string]classReport{}, Goodput: goodput, GoodputPerS: float64(goodput) / secs}
		for _, c := range run.mix.Classes {
			r.SLO.Classes[c.Name] = classReport{DeadlineMS: c.DeadlineMS, Tally: *run.ledger.Classes[c.Name]}
		}
	}
}

// write emits the summarized report: to outFile as JSON when named, and
// to stdout as JSON or text.
func (r *loadReport) write(run samples, jsonOut bool, outFile string) {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	doc = append(doc, '\n')
	if outFile != "" {
		if err := os.WriteFile(outFile, doc, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", outFile)
	}
	if jsonOut {
		if _, err := os.Stdout.Write(doc); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("%s (%s loop, batch %d): %d requests, %d rejected, %d errors in %.2fs\n",
		r.Model, r.Mode, r.Batch, r.Requests, r.Rejected, r.Errors, r.ElapsedS)
	fmt.Printf("throughput: %.1f req/s (%.1f inferences/s)\n", r.ReqPerS, r.InferPerS)
	if r.Mode == "open" {
		fmt.Printf("offered: %.1f req/s asked, %.1f req/s sent; generator lateness ms: p50 %.2f  p99 %.2f\n",
			r.OfferedPerS, r.SentPerS, r.LatenessMS["p50"], r.LatenessMS["p99"])
	}
	lat := r.LatencyMS
	fmt.Printf("latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		lat["mean"], lat["p50"], lat["p95"], lat["p99"], lat["max"])
	nonOK := maps.Clone(r.Categories)
	if delete(nonOK, "ok"); len(nonOK) > 0 {
		list := fmt.Sprint(nonOK) // "map[name:count ...]", in key order
		fmt.Printf("outcomes: %s\n", list[len("map["):len(list)-1])
	}
	if r.Retries > 0 {
		al := r.AttemptLatencyMS
		fmt.Printf("retries: %d (%d attempts total); attempt latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n",
			r.Retries, r.Attempts, al["p50"], al["p95"], al["p99"])
	}
	if r.SLO != nil {
		fmt.Printf("goodput: %.1f req/s in-deadline (%d of %d sent)\n",
			r.SLO.GoodputPerS, r.SLO.Goodput, run.ledger.Total.Sent)
		for _, c := range run.mix.Classes {
			ct := r.SLO.Classes[c.Name]
			fmt.Printf("  %-11s deadline %6.1fms: sent %5d  ok %5d  goodput %5d  shed %5d  expired %5d  failed %3d\n",
				c.Name, ct.DeadlineMS, ct.Sent, ct.Accepted, ct.Goodput, ct.Shed, ct.Expired, ct.Failed)
		}
	}
	if r.Trace != nil {
		fmt.Printf("trace join: %v sampled, %v joined via /debug/traces\n", r.Trace["sampled"], r.Trace["joined"])
		if phases, ok := r.Trace["server_phase_ms"].(map[string]map[string]float64); ok {
			wall, _ := r.Trace["client_wall_ms"].(map[string]float64)
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
