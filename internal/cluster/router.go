package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/metrics"
	"rtmap/internal/serve"
	"rtmap/internal/trace"
)

// Options configures the cluster router tier.
type Options struct {
	// Addr is the router's listen address (":8090" by default).
	Addr string
	// Nodes are the rtmap-serve base URLs ("http://127.0.0.1:8081", ...)
	// forming the cluster. Membership is fixed at start; liveness is the
	// health tracker's job.
	Nodes []string
	// VirtualNodes per member on the hash ring (0: DefaultVirtualNodes).
	VirtualNodes int

	// Health tunes the active prober; Breaker the per-node circuit
	// breakers; Timeouts the class-derived per-attempt deadlines.
	Health  HealthOptions
	Breaker BreakerOptions
	Timeout dispatch.AttemptTimeouts

	// MaxAttempts bounds total tries per request — the first attempt plus
	// retries (default 3). BackoffBase/BackoffCap shape the capped
	// exponential delay between retries (defaults 10ms/250ms).
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// BudgetEarn/BudgetBurst parameterize the per-model retry budget
	// (defaults 0.1 token per request, burst 16).
	BudgetEarn  float64
	BudgetBurst float64

	// DisableHedge turns request hedging off. HedgeFallback is the hedge
	// delay used before a model has attempt-latency samples (default
	// 25ms); afterwards the delay is the model's observed p95.
	DisableHedge  bool
	HedgeFallback time.Duration

	// Transport overrides the proxy/probe transport; the fault-injection
	// harness hooks in here (nil: defaultTransport).
	Transport http.RoundTripper

	// TraceBuf is the span ring capacity (0: trace.DefaultCapacity);
	// TraceSample traces 1-in-N headerless requests (0: header-only).
	TraceBuf    int
	TraceSample int

	// MaxBodyBytes caps a proxied request body (default 64 MiB).
	MaxBodyBytes int64

	// Logf receives router log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8090"
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 250 * time.Millisecond
	}
	if o.HedgeFallback <= 0 {
		o.HedgeFallback = 25 * time.Millisecond
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Router is the cluster front tier: one HTTP server that consistent-
// hashes models across rtmap-serve nodes and wraps every proxied
// /v1/infer in the robustness policy — class-derived attempt timeouts,
// budgeted retries with capped exponential backoff, hedged interactive
// requests, per-node circuit breakers, and health-driven failover.
type Router struct {
	opts     Options
	ring     *Ring
	health   *Health
	breakers *Breakers
	budget   *RetryBudget
	lat      *Latencies
	metrics  *Metrics
	families *metrics.Registry // everything GET /metrics renders
	tracer   *trace.Tracer
	client   *http.Client

	mux      *http.ServeMux
	http     *http.Server
	ln       net.Listener
	draining atomic.Bool
}

// defaultTransport is the proxy/probe transport when the caller supplies
// none: http.DefaultTransport with room for a router's idle connections.
// At the stock two per host, above two concurrent requests to a node
// nearly every attempt dials and leaves a socket in TIME-WAIT.
func defaultTransport() http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	return t
}

// New constructs a Router (not yet listening, prober not yet started).
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Nodes, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	transport := opts.Transport
	if transport == nil {
		transport = defaultTransport()
	}
	opts.Health.Logf = opts.Logf
	families := new(metrics.Registry)
	r := &Router{
		opts:     opts,
		ring:     ring,
		health:   NewHealth(opts.Nodes, opts.Health, transport),
		breakers: NewBreakers(opts.Nodes, opts.Breaker),
		budget:   NewRetryBudget(opts.BudgetEarn, opts.BudgetBurst),
		lat:      NewLatencies(),
		metrics:  NewMetrics(families, opts.Nodes),
		families: families,
		tracer:   trace.New(opts.TraceBuf, opts.TraceSample, 0),
		// No client-level timeout: each attempt carries its own
		// class-derived context deadline.
		client: &http.Client{Transport: transport},
		mux:    http.NewServeMux(),
	}
	// A rejoining node (down -> probation) starts from a clean breaker
	// rather than inheriting the open circuit its death earned.
	r.health.SetRejoinHook(func(node string) {
		r.breakers.Reset(node)
		r.opts.Logf("cluster: node %s rejoined, breaker reset", node)
	})
	collectMembership(families, r.health, r.breakers)
	metrics.RegisterRuntime(families)
	r.mux.HandleFunc("GET /healthz", r.handleHealth)
	r.mux.HandleFunc("POST /v1/infer", r.handleInfer)
	r.mux.HandleFunc("GET /v1/models", r.handleModels)
	r.mux.Handle("GET /metrics", families)
	r.mux.HandleFunc("GET /cluster", r.handleCluster)
	r.mux.Handle("GET /debug/traces", r.tracer)
	r.http = &http.Server{Handler: r.mux}
	return r, nil
}

// Handler exposes the route table (httptest embedding).
func (r *Router) Handler() http.Handler { return r.mux }

// Health exposes the member table (tests, the chaos harness).
func (r *Router) Health() *Health { return r.health }

// Breakers exposes the circuit-breaker table (tests).
func (r *Router) Breakers() *Breakers { return r.breakers }

// Metrics exposes the router counters (tests, the bench).
func (r *Router) Metrics() *Metrics { return r.metrics }

// MetricFamilies lists every family GET /metrics exports (the docs gate).
func (r *Router) MetricFamilies() []*metrics.Family { return r.families.Families() }

// Ring exposes the hash ring (tests, /cluster).
func (r *Router) Ring() *Ring { return r.ring }

// Listen binds the configured address and returns the resolved one.
func (r *Router) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", r.opts.Addr)
	if err != nil {
		return nil, err
	}
	r.ln = ln
	return ln.Addr(), nil
}

// Serve starts the health prober and blocks serving HTTP until Shutdown.
func (r *Router) Serve() error {
	if r.ln == nil {
		if _, err := r.Listen(); err != nil {
			return err
		}
	}
	r.health.Start()
	r.opts.Logf("router listening on %s (%d nodes)", r.ln.Addr(), len(r.opts.Nodes))
	if err := r.http.Serve(r.ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown stops accepting requests, lets in-flight proxies finish
// within ctx, and halts the prober.
func (r *Router) Shutdown(ctx context.Context) error {
	r.draining.Store(true)
	err := r.http.Shutdown(ctx)
	r.health.Stop()
	return err
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleModels proxies the model listing from the first routable node
// (every node serves the same zoo, so one answer represents the cluster).
func (r *Router) handleModels(w http.ResponseWriter, req *http.Request) {
	for _, node := range r.ring.Nodes() {
		if !r.health.State(node).Routable() {
			continue
		}
		ctx, cancel := context.WithTimeout(req.Context(), 2*time.Second)
		proxy, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/models", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := r.client.Do(proxy)
		if err != nil {
			cancel()
			continue
		}
		body, err := serve.ReadBody(resp.Body, resp.ContentLength, r.opts.MaxBodyBytes)
		resp.Body.Close()
		cancel()
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Rtmap-Node", node)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	w.Header().Set("Retry-After", "1")
	serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: "no routable node", Kind: serve.KindUnavailable})
}

// clusterResponse is the /cluster member-table document.
type clusterResponse struct {
	Nodes  []clusterNode `json:"nodes"`
	Cycles int64         `json:"health_cycles"`
}

type clusterNode struct {
	NodeHealth
	Breaker string `json:"breaker"`
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	resp := clusterResponse{Cycles: r.health.Cycles()}
	for _, nh := range r.health.Snapshot() {
		resp.Nodes = append(resp.Nodes, clusterNode{
			NodeHealth: nh, Breaker: r.breakers.State(nh.Node).String(),
		})
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// RouteKey is the ring key of one model variant: the architecture name
// plus the build parameters that change its compiled artifact. Hashing
// the variant rather than the bare name keeps each variant's traffic on
// the nodes holding its artifact warm while spreading one popular
// architecture's variants across the cluster. Omitted request fields
// stay at their zero values — the key only has to be consistent for
// identical bodies, not to resolve node-side defaults.
func RouteKey(model string, actBits int, sparsity *float64, seed uint64) string {
	sp := "-"
	if sparsity != nil {
		sp = strconv.FormatFloat(*sparsity, 'g', -1, 64)
	}
	return fmt.Sprintf("%s?bits=%d&sparsity=%s&seed=%d", model, actBits, sp, seed)
}

// attemptOutcome classifies one proxied attempt for the retry policy.
type attemptOutcome int

const (
	outcomeRelay     attemptOutcome = iota // an HTTP response the client should see
	outcomeRetryable                       // safe to try another owner
	outcomeCancelled                       // our own context ended (hedge loser, client gone)
)

// proxyResult is one attempt's full outcome. Response bodies are
// buffered before relay, so "zero bytes reached the client" holds for
// every non-relayed attempt — the precondition for safe retries.
type proxyResult struct {
	node    string
	outcome attemptOutcome
	status  int           // valid when an HTTP response arrived
	header  http.Header   // ditto
	body    []byte        // ditto
	err     error         // transport error, when no response arrived
	wall    time.Duration // attempt wall time
}

func (r *Router) handleInfer(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	// refuse answers a router-made error and, like every way out of the
	// handler, counts the request: requests_total = ok + failed = calls.
	refuse := func(code int, kind, msg string) {
		r.metrics.ObserveRequest(time.Since(t0), false)
		serve.WriteJSON(w, code, serve.ErrorResponse{Error: msg, Kind: kind})
	}
	if r.draining.Load() {
		w.Header().Set("Retry-After", "1")
		refuse(http.StatusServiceUnavailable, serve.KindUnavailable, "router draining")
		return
	}

	body, err := serve.ReadBody(req.Body, req.ContentLength, r.opts.MaxBodyBytes)
	if errors.Is(err, serve.ErrBodyTooLarge) {
		refuse(http.StatusRequestEntityTooLarge, serve.KindBadRequest, "request body exceeds router limit")
		return
	}
	if err != nil {
		refuse(http.StatusBadRequest, serve.KindBadRequest, "reading body: "+err.Error())
		return
	}
	rt, hasModel := routeOf(body, req.Header, t0)
	if !hasModel {
		refuse(http.StatusBadRequest, serve.KindBadRequest, "request carries no model name")
		return
	}

	c := &call{
		route: rt, traceID: r.tracer.Intake(req.Header.Get(serve.TraceHeader)),
		body: body, hdr: req.Header,
		untried: r.ring.Owners(rt.key, len(r.opts.Nodes)),
	}
	res := r.proxyWithPolicy(req.Context(), c)

	wall := time.Since(t0)
	detail := "failed"
	if res != nil && res.outcome == outcomeRelay {
		detail = res.node
	}
	r.tracer.Event(c.traceID, "route", rt.model, t0, wall, detail)

	if res == nil {
		r.metrics.sheds.Inc()
		if c.expired(time.Now()) {
			// The deadline ran out before any attempt produced an
			// answer: the request is expired, not the cluster dead.
			refuse(http.StatusServiceUnavailable, serve.KindExpired, "deadline expired before an attempt completed")
			return
		}
		// No routable owner, or the policy gave up without a response to
		// relay: the cluster as a whole sheds.
		w.Header().Set("Retry-After", "1")
		refuse(http.StatusServiceUnavailable, serve.KindUnavailable, "no live owner for model")
		return
	}
	if res.outcome != outcomeRelay {
		// Transport-level failure on the last attempt, nothing relayable.
		// No node accepted the request, so this is a clean retryable
		// rejection (503), same contract as a breaker/owner shed — the
		// router never converts an unaccepted request into a hard error.
		w.Header().Set("Retry-After", "1")
		refuse(http.StatusServiceUnavailable, serve.KindUnavailable, fmt.Sprintf("node %s: %v", res.node, res.err))
		return
	}

	ok := res.status < 400
	r.metrics.ObserveRequest(wall, ok)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Rtmap-Node", res.node)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// route is what the router reads from a request to place and police it;
// the payload is relayed verbatim.
type route struct {
	key      string // RouteKey of the model variant
	model    string
	class    dispatch.Class
	deadline time.Time // zero: none
}

// routeOf decodes the header of a proxied inference body — the
// activations are skipped, not parsed (serve.DecodeInferHeader) — and
// resolves the SLO fields against the request headers as the node will
// (serve.ResolveSLO). The policy is deadline- and class-aware even when
// clients set them in the body. false means the body names no model.
func routeOf(body []byte, hdr http.Header, now time.Time) (route, bool) {
	probe, err := serve.DecodeInferHeader(body)
	if err != nil || probe.Model == "" {
		return route{}, false
	}

	// A class or deadline the node will refuse routes as standard class
	// with no deadline; the body and headers are forwarded untouched and
	// the node answers the authoritative 400.
	class, deadline, _ := serve.ResolveSLO(hdr, &probe, now)
	return route{
		key:   RouteKey(probe.Model, probe.ActBits, probe.Sparsity, probe.Seed),
		model: probe.Model, class: class, deadline: deadline,
	}, true
}

// call is one client request on its way through the policy: what
// handleInfer read from it, and which of its owners it has yet to be sent
// to. The policy goroutine alone touches untried; attempts running beside
// it (a hedge race) only read the rest.
type call struct {
	route
	traceID string // "": untraced
	body    []byte
	hdr     http.Header
	// untried is the key's ring owners, in preference order, less those an
	// attempt or a hedge has gone to (a list, not a set beside the owners:
	// a request walks two or three of them and must not allocate for it).
	untried []string
}

// expired reports whether the request's deadline, if it has one, has
// passed: no further attempt can beat it.
func (c *call) expired(now time.Time) bool {
	return !c.deadline.IsZero() && !now.Before(c.deadline)
}

// next returns the first untried owner, in ring (preference) order, that
// is routable and whose breaker admits a request — possibly as a
// half-open trial, which a caller that then sends nothing must release
// (CancelTrial). "" means no owner is left; the caller takes the one it
// uses.
func (r *Router) next(c *call) string {
	now := time.Now()
	for _, n := range c.untried {
		if r.health.State(n).Routable() && r.breakers.Allow(n, now) {
			return n
		}
	}
	return ""
}

// take marks node tried: no later attempt or hedge of this call goes to it.
func (c *call) take(node string) {
	c.untried = slices.DeleteFunc(c.untried, func(n string) bool { return n == node })
}

// proxyWithPolicy runs the full robustness policy for one request:
// walk the key's owners in ring order, skip unroutable/broken nodes,
// retry safe failures with capped exponential backoff under the model's
// retry budget, hedge interactive first attempts. Returns nil when no
// attempt could even be made.
func (r *Router) proxyWithPolicy(ctx context.Context, c *call) *proxyResult {
	r.budget.Earn(c.model)

	var last *proxyResult
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		// A spent deadline ends the walk: another attempt cannot beat it,
		// so relay what we have (or shed) instead of burning full-length
		// attempts on an already-dead request.
		if ctx.Err() != nil || c.expired(time.Now()) {
			break
		}
		node := r.next(c)
		if node == "" {
			break
		}
		c.take(node)

		if attempt > 0 {
			if !r.budget.Spend(c.model) {
				// Allow admitted node (possibly a half-open trial) but no
				// attempt will run: release the trial or it leaks and the
				// node is refused forever.
				r.breakers.CancelTrial(node)
				r.metrics.budgetExhausted.Inc()
				break
			}
			backoff := dispatch.Backoff(r.opts.BackoffBase, r.opts.BackoffCap, attempt-1)
			if !sleepCtx(ctx, backoff) || c.expired(time.Now()) {
				// Cancelled, or the deadline passed, during the backoff sleep.
				r.breakers.CancelTrial(node)
				break
			}
			r.metrics.retries.Inc()
			if c.traceID != "" {
				reason := "transport"
				if last != nil && last.status != 0 {
					reason = fmt.Sprintf("http_%d", last.status)
				}
				r.tracer.Event(c.traceID, "retry", c.model, time.Now(), backoff,
					fmt.Sprintf("attempt %d -> %s after %s", attempt+1, node, reason))
			}
		}

		if attempt == 0 && c.class == dispatch.ClassInteractive && !r.opts.DisableHedge {
			last = r.hedgedAttempt(ctx, c, node)
		} else {
			last = r.attempt(ctx, c, node)
		}
		if last.outcome != outcomeRetryable {
			return last // relayed, or our own context ended
		}
		// outcomeRetryable: walk on to the next owner.
	}
	if last != nil && last.outcome == outcomeRetryable && last.status != 0 {
		// Exhausted attempts/budget/owners on a retryable failure: an HTTP
		// 503 can still be relayed (it carries the node's Retry-After); a
		// pure transport error has no response.
		last.outcome = outcomeRelay
	}
	return last
}

// hedgedAttempt races the primary attempt against a second owner: if
// the primary has not answered within the model's p95 attempt latency,
// a hedge fires at the next owner and the first response wins; the
// loser's context is cancelled. Only the winner is relayed, so results
// stay bit-exact regardless of which copy ran.
func (r *Router) hedgedAttempt(ctx context.Context, c *call, primary string) *proxyResult {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan *proxyResult, 2)
	go func() {
		results <- r.attempt(hctx, c, primary)
	}()

	delay := r.lat.P95(c.model, r.opts.HedgeFallback)
	timer := time.NewTimer(delay)
	defer timer.Stop()

	inFlight := 1
	hedgeNode := ""
	var failed *proxyResult
	for inFlight > 0 {
		select {
		case res := <-results:
			inFlight--
			if res.outcome == outcomeRelay {
				if hedgeNode != "" {
					r.metrics.ObserveHedge(res.node == hedgeNode)
				}
				return res
			}
			if res.outcome == outcomeCancelled && ctx.Err() == nil {
				// Lost the race to the other attempt's completion path;
				// keep waiting for the winner.
				continue
			}
			failed = res
		case <-timer.C:
			if hedgeNode != "" {
				continue
			}
			// Pick the next owner (the primary is already taken); spend a
			// budget token (a hedge is a speculative retry and amplifies
			// identically).
			hedgeNode = r.next(c)
			if hedgeNode == "" || !r.budget.Spend(c.model) {
				if hedgeNode != "" {
					// Allow admitted the candidate but the budget refused
					// the hedge: release any half-open trial admission.
					r.breakers.CancelTrial(hedgeNode)
					r.metrics.budgetExhausted.Inc()
					hedgeNode = ""
				}
				continue
			}
			if c.traceID != "" {
				r.tracer.Event(c.traceID, "hedge", c.model, time.Now(), delay,
					fmt.Sprintf("%s -> %s after %s", primary, hedgeNode, delay))
			}
			c.take(hedgeNode)
			inFlight++
			go func(n string) {
				results <- r.attempt(hctx, c, n)
			}(hedgeNode)
		}
	}
	if hedgeNode != "" {
		r.metrics.ObserveHedge(false)
	}
	return failed
}

// attempt issues one proxied POST /v1/infer against one node under the
// class-derived attempt timeout, classifies the outcome, and feeds the
// health tracker and the node's breaker.
func (r *Router) attempt(ctx context.Context, c *call, node string) *proxyResult {
	remaining := time.Duration(0)
	if !c.deadline.IsZero() {
		remaining = time.Until(c.deadline)
	}
	timeout := r.opts.Timeout.AttemptTimeout(c.class, remaining)
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	t0 := time.Now()
	res := &proxyResult{node: node}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, node+"/v1/infer", bytes.NewReader(c.body))
	if err != nil {
		// Nothing was sent: release any trial admission rather than leak it.
		r.breakers.CancelTrial(node)
		res.outcome, res.err, res.wall = outcomeRetryable, err, time.Since(t0)
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if v := c.hdr.Get(serve.ClassHeader); v != "" {
		req.Header.Set(serve.ClassHeader, v)
	}
	if !c.deadline.IsZero() {
		// Forward the *remaining* budget, not the client's original: the
		// node reads the header as milliseconds from its own receipt, so
		// relaying it verbatim would restart the full budget on every
		// retry/hedge. Floor just above zero — zero reads as "no
		// deadline" node-side, negative as malformed.
		ms := float64(remaining) / float64(time.Millisecond)
		if ms <= 0 {
			ms = 0.001
		}
		req.Header.Set(serve.DeadlineHeader, strconv.FormatFloat(ms, 'f', -1, 64))
	} else if v := c.hdr.Get(serve.DeadlineHeader); v != "" {
		// Unparseable client value: relay verbatim so the node rejects it
		// with the authoritative 400.
		req.Header.Set(serve.DeadlineHeader, v)
	}
	if c.traceID != "" {
		// Forward the (possibly router-minted) trace ID so node-side
		// spans join the router's route/retry/hedge spans.
		req.Header.Set(serve.TraceHeader, c.traceID)
	}

	resp, err := r.client.Do(req)
	res.wall = time.Since(t0)
	if err != nil {
		res.err = err
		switch {
		case ctx.Err() != nil:
			// Our parent ended: hedge lost the race or the client is gone.
			// Not a node failure — feed nothing into health or breakers,
			// but release any half-open trial this attempt was admitted
			// under, and label it distinctly so routine hedge losses don't
			// read as node errors on dashboards.
			res.outcome = outcomeCancelled
			r.breakers.CancelTrial(node)
			r.metrics.ObserveAttempt(node, attemptCancelled, res.wall)
		case errors.Is(err, syscall.ECONNREFUSED):
			// Connect-level refusal: nobody is listening. Safe to retry
			// (the request never ran) and strong evidence the node is
			// dead — confirm it to the health tracker without waiting for
			// the next probe round.
			res.outcome = outcomeRetryable
			r.health.ReportAttempt(node, false, err)
			r.breakers.Observe(node, false, time.Now())
			r.metrics.ObserveAttempt(node, attemptRefused, res.wall)
		case errors.Is(err, context.DeadlineExceeded):
			// The attempt timeout expired with zero response bytes: a hung
			// or overwhelmed node. Inference is pure and nothing reached
			// the client, so retrying elsewhere is safe. Ambiguous as a
			// liveness signal — let the prober decide — but it does count
			// against the breaker so a black-holing node stops absorbing
			// attempts.
			res.outcome = outcomeRetryable
			r.breakers.Observe(node, false, time.Now())
			r.metrics.ObserveAttempt(node, attemptTimeout, res.wall)
		case errors.Is(err, syscall.ECONNRESET), errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			// The node's TCP stack tore the connection down mid-request: a
			// crashed process, not a slow one (the transport already retries
			// idle-connection races itself, so what reaches here is real).
			// Same death signal as a refused dial — report it so in-flight
			// traffic confirms a kill without waiting out a probe round.
			res.outcome = outcomeRetryable
			r.health.ReportAttempt(node, false, err)
			r.breakers.Observe(node, false, time.Now())
			r.metrics.ObserveAttempt(node, attemptError, res.wall)
		default:
			// Other transport failure (DNS, TLS, malformed response). No
			// response bytes were relayed, so retry is safe; too ambiguous
			// as a liveness signal — let the prober decide.
			res.outcome = outcomeRetryable
			r.breakers.Observe(node, false, time.Now())
			r.metrics.ObserveAttempt(node, attemptError, res.wall)
		}
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.header = resp.Header
	res.body, err = serve.ReadBody(resp.Body, resp.ContentLength, r.opts.MaxBodyBytes)
	if err != nil {
		// Response truncated mid-body. Zero bytes were relayed (we
		// buffer), so retrying is still safe.
		res.outcome, res.err, res.status = outcomeRetryable, err, 0
		res.wall = time.Since(t0)
		if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn down mid-body: the same crash signal as above.
			r.health.ReportAttempt(node, false, err)
		}
		r.breakers.Observe(node, false, time.Now())
		r.metrics.ObserveAttempt(node, attemptError, res.wall)
		return res
	}
	res.wall = time.Since(t0)

	// Any complete HTTP response proves the node alive: report health
	// and breaker success even for rejections — a shedding node is
	// protecting itself, not dying, and opening its breaker would dump
	// its load onto the other owners.
	r.health.ReportAttempt(node, true, nil)
	r.breakers.Observe(node, true, time.Now())

	switch {
	case res.status < 400:
		res.outcome = outcomeRelay
		r.lat.Observe(c.model, res.wall)
		r.metrics.ObserveAttempt(node, attemptOK, res.wall)
	case res.status == http.StatusServiceUnavailable && errKind(res.body) != serve.KindExpired:
		// 503 kind unavailable: the node is draining or lost capacity for
		// this model — the canonical safe retry (kind "expired" is the
		// request's own deadline talking; another node can't beat it).
		res.outcome = outcomeRetryable
		r.metrics.ObserveAttempt(node, attemptReject, res.wall)
	default:
		// 4xx (bad request, shed with Retry-After, expired): the client
		// must see it; retrying would either fail identically or defeat
		// node-side backpressure.
		res.outcome = outcomeRelay
		r.metrics.ObserveAttempt(node, attemptReject, res.wall)
	}
	return res
}

// errKind extracts the "kind" field of a node error document.
func errKind(body []byte) string {
	var e serve.ErrorResponse
	if json.Unmarshal(body, &e) == nil {
		return e.Kind
	}
	return ""
}

// sleepCtx sleeps d or until ctx ends; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
