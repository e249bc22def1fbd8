package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"rtmap/internal/cluster"
	"rtmap/internal/core"
	"rtmap/internal/dispatch"
	"rtmap/internal/serve"
	"rtmap/internal/sim"
	"rtmap/internal/trace"
	"rtmap/internal/workload"
)

// setupReps is how often a serving run boots the topology cold: set-up
// takes milliseconds there, so the reported setup_s is the median of
// several boots rather than one noisy one.
const setupReps = 9

// pacedRate is the open loop's offered load, about a third of what two
// connections carry when every request waits out the 2 ms batch window.
const pacedRate = 200

// unloadedRequests is the length of each alternating unloaded leg.
const unloadedRequests = 200

// serveWorkload drives client -> router -> node -> engine. Saturated: a
// closed loop of full micro-batches (8 inputs per request). Paced: an
// open loop of single-input requests at a fixed rate.
type serveWorkload struct{ paced bool }

func (w serveWorkload) run(e *env) error {
	inputsPerReq, rate := 8, 0.0
	if w.paced {
		inputsPerReq, rate = 1, pacedRate
	}
	reqs, inputsDur, oracleDur, err := buildRequests(e.seed, inputsPerReq)
	if err != nil {
		return err
	}
	e.selfTestOK = reqs[0].want[0].checkFires()

	traceBuf := 0
	if e.traced {
		traceBuf = tracedBuf
	}
	var topo *topology
	var gen *loadgen
	var setups, admits []float64
	for rep := range setupReps {
		if topo != nil {
			if err := topo.close(); err != nil {
				return fmt.Errorf("closing the topology: %w", err)
			}
		}
		// Nodes admit through the process-wide artifact cache; emptying
		// it makes every boot a cold one.
		core.SharedCache.Reset()
		start := time.Now()
		quiet, err := atQuietPace(func() (err error) {
			if topo, err = bootTopology(traceBuf); err != nil {
				return err
			}
			gen = newLoadgen(topo.client, reqs, e.seed, topo.viaRouter)
			for v := range servedVariants {
				op := gen.do(&reqs[v*payloadsPerVariant], time.Time{})
				if op.failed {
					return fmt.Errorf("boot %d: first request of variant %d failed or does not match the integer reference", rep, servedVariants[v])
				}
				admits = append(admits, ms(op.latency))
			}
			return nil
		})
		if err != nil {
			if topo != nil {
				topo.close()
			}
			return err
		}
		setups = append(setups, quiet.Seconds())
		e.rec.add(0, "bench.setup", fmt.Sprintf("boot=%d", rep), start, time.Now())
	}
	defer topo.close()
	setup := time.Duration(median(setups) * float64(time.Second))

	// Warm-up: lazy set-up (connections, arenas, the batcher's adaptive
	// window) finishes before anything is timed.
	gen.run(time.Now().Add(e.warmLen()), rate)

	if !e.traced {
		win := measure(e.sliceCount(), e.sliceLen(), inputsPerReq, false, gen.runner(rate))
		return e.reportEndToEnd(setup, len(setups), win, !w.paced)
	}

	// Compile side on the workload's model, by the harness's own calls.
	a, err := admit(e.rec, zoo[servedModel])
	if err != nil {
		return err
	}
	firstCall, err := e.rec.timed("sim.first_call", func() error {
		_, err := sim.ForwardAPBatch(a.c, workload.Inputs(a.net.InputShape, inputsPerReq, e.seed))
		return err
	})
	if err != nil {
		return fmt.Errorf("first engine call on %s: %w", servedModel, err)
	}
	if err := e.reportCompileSide(a, firstCall, inputsDur, oracleDur, len(reqs)*inputsPerReq); err != nil {
		return err
	}
	e.m.set("serve.admit_cold_ms", median(admits), len(admits))
	return w.tracedLeg(e, topo, gen, reqs, rate, inputsPerReq)
}

// tracedLeg takes the serving path's per-layer numbers, in the same warm
// process: an untraced and a traced window of the workload's own traffic,
// the alternating unloaded legs, CPU comparisons at the paced rate, and
// the micro-timings.
func (w serveWorkload) tracedLeg(e *env, topo *topology, gen *loadgen, reqs []request, rate float64, inputsPerReq int) error {
	peaks := startPeakSampler()

	// (0) Untraced window: what ordinary responses say, and the base the
	// traced window's throughput is compared with.
	plain := measure(1, e.share(0.2), inputsPerReq, true, gen.runner(rate))
	e.reportClientLayer(plain)
	var batch, queue, late []float64
	byNode := map[string]int{}
	for _, op := range plain.ops {
		if op.failed {
			continue
		}
		batch = append(batch, float64(op.batchSize))
		queue = append(queue, float64(op.queueNS)/1e6)
		late = append(late, ms(op.lateness))
		byNode[op.node]++
	}
	busiest := 0
	for _, n := range byNode {
		busiest = max(busiest, n)
	}
	e.m.set("serve.batch_size_mean", mean(batch), len(batch))
	e.m.set("serve.queue_wall_ms_mean", mean(queue), len(queue))
	e.m.set("cluster.node_balance", float64(busiest)/float64(max(len(batch), 1)), len(batch))
	e.m.set("loadgen.lateness_p50_ms", percentile(late, 50), len(late))
	e.m.set("loadgen.lateness_p90_ms", percentile(late, 90), len(late))

	// (1) Traced window: the same traffic with a trace ID on every request.
	tracedGen := gen.traced(e.rec, "t")
	tracedWin := measure(1, e.share(0.2), inputsPerReq, true, tracedGen.runner(rate))
	e.count(tracedWin)
	e.m.set("trace.overhead_share", 1-tracedWin.inferPerS(!w.paced)/plain.inferPerS(!w.paced), tracedWin.n())
	if err := reportSpans(e, topo, tracedWin); err != nil {
		return err
	}

	// (2) Unloaded legs, one client, the workload's own bodies,
	// alternating so that drift hits all three alike: the node's handler
	// in-process, the node over loopback, the router over loopback.
	legs := []*loadgen{
		newLoadgen(handlerTransport{topo}, reqs, e.seed, topo.toOwner),
		newLoadgen(topo.client, reqs, e.seed, topo.toOwner),
		newLoadgen(topo.client, reqs, e.seed, topo.viaRouter),
	}
	var legMS [3][]float64
	n := min(unloadedRequests, max(20, int(e.seconds*20)))
	for i := range n {
		rq := &reqs[i%len(reqs)]
		for l, g := range legs {
			op := g.do(rq, time.Time{})
			e.attempted++
			if op.failed {
				e.failed++
				continue
			}
			legMS[l] = append(legMS[l], ms(op.latency))
		}
	}
	handler, node, router := percentile(legMS[0], 50), percentile(legMS[1], 50), percentile(legMS[2], 50)
	e.m.set("serve.handler_ms_p50", handler, len(legMS[0]))
	e.m.set("serve.node_ms_p50", node, len(legMS[1]))
	e.m.set("serve.transport_ms_p50", node-handler, len(legMS[1]))
	e.m.set("cluster.hop_ms_p50", router-node, len(legMS[2]))

	// The handler's allocations: the same in-process calls in a row, with
	// nothing else sending.
	before := readCounters()
	for i := range n {
		if legs[0].do(&reqs[i%len(reqs)], time.Time{}).failed {
			e.failed++
		}
	}
	after := readCounters()
	e.attempted += n
	e.m.set("serve.handler_allocs_per_req", float64(after.mallocs-before.mallocs)/float64(n), n)
	e.m.set("serve.handler_kb_per_req", float64(after.alloc-before.alloc)/1024/float64(n), n)

	// (3) CPU per request: at the paced rate through the router and
	// straight to the owner node — the difference is the router hop's
	// CPU — and, in the workload's own loop, against a stub that answers
	// from memory: what the generator (and a bare HTTP server) costs.
	cpuPerReq := func(g *loadgen, rate float64) (float64, int) {
		win := measure(1, e.share(0.1), inputsPerReq, false, g.runner(rate))
		e.count(win)
		return ms(win.slices[0].cpu) / float64(max(win.n(), 1)), win.n()
	}
	viaRouter, n1 := cpuPerReq(legs[2], pacedRate)
	direct, n2 := cpuPerReq(legs[1], pacedRate)
	e.m.set("cluster.hop_cpu_ms_per_req", viaRouter-direct, min(n1, n2))
	stub, stopStub, err := stubLoadgen(reqs[0], e.seed)
	if err != nil {
		return err
	}
	stubCPU, n3 := cpuPerReq(stub, rate) // the workload's own loop: closed when saturated, paced when paced
	stopStub()
	e.m.set("loadgen.cpu_ms_per_req", stubCPU, n3)

	// (4) Micro-timings of the policy, tracer and codec calls on the path.
	microTimings(e, topo, reqs)

	// (5) What the program counted itself.
	if err := reportCounters(e, topo); err != nil {
		return err
	}

	if w.paced {
		sum := e.m.get("loadgen.lateness_p50_ms") + e.m.get("serve.transport_ms_p50") + e.m.get("cluster.hop_ms_p50") +
			e.m.get("serve.residual_ms_p50") + e.m.get("serve.wait_ms_p50") + e.m.get("serve.queue_ms_p50") + e.m.get("serve.exec_ms_p50")
		p50 := percentile(plain.latMS, 50)
		e.m.set("client.explained_share", sum/p50, plain.n())
		fmt.Printf("# layer sum %.3f ms of op_p50 %.3f ms, unexplained %.3f ms\n", sum, p50, p50-sum)
	}

	peaks.report(e.m)
	return nil
}

// reportSpans reads the spans the program recorded for the traced
// window — the nodes' through Tracer().Snapshot(), the router's through
// /debug/traces — hangs them under the client spans by trace ID, and
// reports the median of each phase.
func reportSpans(e *env, topo *topology, win window) error {
	byTrace := map[string][]trace.Span{}
	var dropped uint64
	for _, s := range topo.nodes {
		spans := s.Tracer().Snapshot()
		dropped += s.Tracer().Total() - uint64(len(spans))
		for _, sp := range spans {
			byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		}
	}
	resp, err := http.Get(topo.routerURL + "/debug/traces")
	if err != nil {
		return fmt.Errorf("reading the router's spans: %w", err)
	}
	var routed struct {
		Spans   []trace.Span `json:"spans"`
		Dropped uint64       `json:"dropped"`
	}
	err = json.NewDecoder(resp.Body).Decode(&routed)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding the router's spans: %w", err)
	}
	dropped += routed.Dropped
	for _, sp := range routed.Spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	e.m.set("trace.dropped_spans", float64(dropped), 1)
	if dropped > 0 {
		return fmt.Errorf("%d spans dropped: TraceBuf %d is too small for this run length", dropped, tracedBuf)
	}

	phase := map[string][]float64{}
	var residual, coverage, routeSelf []float64
	for _, op := range win.ops {
		if op.failed {
			continue
		}
		spans := byTrace[op.traceID]
		e.rec.adopt(op.spanID, op.traceID, spans)
		httpNS := phaseNS(spans, "http")
		if httpNS == 0 {
			continue
		}
		inner := int64(0)
		for _, name := range []string{"wait", "queue", "exec"} {
			ns := phaseNS(spans, name)
			phase[name] = append(phase[name], float64(ns)/1e6)
			inner += ns
		}
		phase["http"] = append(phase["http"], float64(httpNS)/1e6)
		residual = append(residual, float64(httpNS-inner)/1e6)
		coverage = append(coverage, float64(inner)/float64(httpNS))
		if routeNS := phaseNS(spans, "route"); routeNS > 0 {
			routeSelf = append(routeSelf, float64(routeNS-httpNS)/1e6)
		}
	}
	for _, name := range []string{"http", "wait", "queue", "exec"} {
		e.m.set("serve."+name+"_ms_p50", percentile(phase[name], 50), len(phase[name]))
	}
	e.m.set("serve.residual_ms_p50", percentile(residual, 50), len(residual))
	e.m.set("trace.span_coverage", percentile(coverage, 50), len(coverage))
	e.m.set("cluster.route_self_ms_p50", percentile(routeSelf, 50), len(routeSelf))
	return nil
}

// phaseNS is the length the spans of one name cover within one request;
// a request whose inputs were split over two batches has overlapping
// spans of one name, and their union is what it waited.
func phaseNS(spans []trace.Span, name string) int64 {
	var ivs []interval
	for _, sp := range spans {
		if sp.Name == name {
			ivs = append(ivs, interval{sp.Start, sp.Start + sp.Dur})
		}
	}
	return covered(ivs, math.MinInt64, math.MaxInt64)
}

// stubLoadgen is the same generator pointed at a handler that answers
// one pooled body's correct response from memory; stop shuts the stub down.
func stubLoadgen(rq request, seed uint64) (g *loadgen, stop func(), err error) {
	body, err := cannedResponse(rq)
	if err != nil {
		return nil, nil, err
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the stub only drains the body; a short read shows as a failed request
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	tr := http.DefaultTransport.(*http.Transport).Clone()
	g = newLoadgen(tr, []request{rq}, seed, func(*request) string { return stub.URL })
	return g, func() { tr.CloseIdleConnections(); stub.Close() }, nil
}

// nsPerOp times n calls of f.
func nsPerOp(n int, f func()) float64 {
	start := time.Now()
	for range n {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// microTimings bound what a policy, tracer or codec rewrite can save per
// request: each is the public call the path makes, timed in a loop.
func microTimings(e *env, topo *topology, reqs []request) {
	const n = 20000

	clock := dispatch.NewManual(time.Unix(0, 0))
	former := dispatch.NewFormer(dispatch.FormerOptions{})
	e.m.set("dispatch.former_ns_per_ticket", nsPerOp(n, func() {
		former.Push(dispatch.Ticket{Enqueued: clock.Now()})
		if former.Pending() == 8 {
			former.Form(clock.Advance(time.Millisecond), false)
		}
	}), n)

	var shed dispatch.ShedPolicy
	now := time.Now()
	e.m.set("dispatch.admit_ns", nsPerOp(n, func() {
		shed.Admit(dispatch.ClassStandard, time.Time{}, now, time.Millisecond)
	}), n)

	tr := trace.New(0, 0, 0)
	sp := trace.Span{TraceID: "micro", Name: "exec", Model: servedModel, Start: now.UnixNano(), Dur: 1000}
	e.m.set("trace.record_ns", nsPerOp(n, func() { tr.Record(sp) }), n)

	ring := topo.router.Ring()
	key := cluster.RouteKey(servedModel, 0, nil, servedVariants[0])
	e.m.set("cluster.ring_owners_ns", nsPerOp(n, func() { ring.Owners(key, len(nodeNames)) }), n)

	// Codec estimates at the workload's body size: a fresh decode of a
	// pooled request, a fresh encode of the response it gets.
	const codecN = 2000
	body := reqs[0].body
	e.m.set("serve.decode_est_ms", nsPerOp(codecN, func() {
		var rq serve.InferRequest
		_ = json.Unmarshal(body, &rq) // a body this harness marshalled itself
	})/1e6, codecN)
	resp := serve.InferResponse{Model: servedModel, Key: "k"}
	for _, ref := range reqs[0].want {
		resp.Results = append(resp.Results, serve.InferResult{Logits: ref.logits, Batch: serve.BatchInfo{Size: 8, QueueWallNS: 123456, SimLatencyNS: 1234.5, SimPerSampleNS: 154.3, SimEnergyPJ: 9876.5}})
	}
	e.m.set("serve.encode_est_ms", nsPerOp(codecN, func() {
		_, _ = json.Marshal(&resp) // plain numbers and strings always marshal
	})/1e6, codecN)
}

// reportCounters reads what the nodes' /metrics and the router's
// counters say about refused, expired, failed and retried work. All are
// expected to read 0; a non-zero one explains a failed_share.
func reportCounters(e *env, topo *topology) error {
	client := &http.Client{Transport: topo.client}
	totals := map[string]float64{}
	for url := range topo.nodes {
		resp, err := client.Get(url + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping %s: %w", url, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if strings.HasPrefix(line, "#") || i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			series := line[:i]
			if series == "rtmap_requeued_batches_total" {
				totals["requeued"] += v
			}
			for _, outcome := range []string{"shed", "expired", "failed"} {
				if strings.HasPrefix(series, "rtmap_slo_requests_total{") && strings.Contains(series, `outcome="`+outcome+`"`) {
					totals[outcome] += v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("scraping %s: %w", url, err)
		}
	}
	for _, name := range []string{"shed", "expired", "failed", "requeued"} {
		e.m.set("serve."+name+"_total", totals[name], len(topo.nodes))
	}
	_, retries, hedges, hedgeWins, sheds := topo.router.Metrics().Counters()
	e.m.set("cluster.retries_total", float64(retries), 1)
	e.m.set("cluster.hedges_total", float64(hedges+hedgeWins), 1)
	e.m.set("cluster.sheds_total", float64(sheds), 1)
	return nil
}
