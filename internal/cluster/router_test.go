package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/serve"
	"rtmap/internal/trace"
)

// stubNode is one fake rtmap-serve backend: healthy /healthz plus a
// swappable /v1/infer handler.
type stubNode struct {
	ts    *httptest.Server
	hits  atomic.Int32
	infer atomic.Pointer[http.HandlerFunc]
}

func newStub(t *testing.T, infer http.HandlerFunc) *stubNode {
	t.Helper()
	s := &stubNode{}
	s.infer.Store(&infer)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		// Drain the body like the real server does: the stdlib server only
		// detects a client disconnect (and cancels r.Context()) once the
		// request body has been consumed.
		io.Copy(io.Discard, r.Body)
		(*s.infer.Load())(w, r)
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func ok200(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}
}

func newTestRouter(t *testing.T, opts Options, nodes ...string) (*Router, *httptest.Server) {
	t.Helper()
	opts.Nodes = nodes
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

// keyWithPrimary finds a model name whose ring primary is the given
// node. postInfer sends bare bodies (no bits/sparsity/seed), so the
// router places them at RouteKey(name, 0, nil, 0).
func keyWithPrimary(t *testing.T, r *Ring, primary string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("model-%d", i)
		if r.Owners(RouteKey(k, 0, nil, 0), 1)[0] == primary {
			return k
		}
	}
	t.Fatalf("no key maps to %s", primary)
	return ""
}

func postInfer(t *testing.T, url, model string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"inputs":[[1,2,3]]}`, model)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/infer", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestRouterProxiesAndForwardsHeaders(t *testing.T) {
	var gotClass, gotDeadline, gotTrace atomic.Value
	stub := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		gotClass.Store(r.Header.Get(serve.ClassHeader))
		gotDeadline.Store(r.Header.Get(serve.DeadlineHeader))
		gotTrace.Store(r.Header.Get(serve.TraceHeader))
		ok200(`{"model":"m","results":[]}`)(w, r)
	})
	r, ts := newTestRouter(t, Options{}, stub.ts.URL)

	resp, raw := postInfer(t, ts.URL, "m", map[string]string{
		serve.ClassHeader:    "standard",
		serve.DeadlineHeader: "5000",
		serve.TraceHeader:    "cafef00dcafef00d",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"results"`)) {
		t.Fatalf("body not relayed: %s", raw)
	}
	if resp.Header.Get("X-Rtmap-Node") != stub.ts.URL {
		t.Fatalf("X-Rtmap-Node = %q, want %q", resp.Header.Get("X-Rtmap-Node"), stub.ts.URL)
	}
	if gotClass.Load() != "standard" || gotTrace.Load() != "cafef00dcafef00d" {
		t.Fatalf("headers not forwarded: class=%v trace=%v", gotClass.Load(), gotTrace.Load())
	}
	// The deadline header is rewritten to the remaining budget (the node
	// reads it as ms from its own receipt), so the node must see a
	// positive value no larger than the client's 5000.
	gd, _ := gotDeadline.Load().(string)
	if v, err := strconv.ParseFloat(gd, 64); err != nil || v <= 0 || v > 5000 {
		t.Fatalf("deadline %q not rewritten to remaining budget in (0, 5000]", gd)
	}
	// The explicit trace header left route spans behind.
	var foundRoute bool
	for _, sp := range r.tracer.Snapshot() {
		if sp.Name == "route" && sp.TraceID == "cafef00dcafef00d" {
			foundRoute = true
		}
	}
	if !foundRoute {
		t.Fatal("no route span recorded for the traced request")
	}
}

func TestRouterFailsOverOnRefusedConnection(t *testing.T) {
	alive := newStub(t, ok200(`{"model":"m","results":[{"argmax":3}]}`))
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close() // nothing listens: dials get ECONNREFUSED

	r, ts := newTestRouter(t, Options{}, deadURL, alive.ts.URL)
	model := keyWithPrimary(t, r.Ring(), deadURL)

	resp, raw := postInfer(t, ts.URL, model, map[string]string{serve.TraceHeader: "deadbeefdeadbeef"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover failed: HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Rtmap-Node"); got != alive.ts.URL {
		t.Fatalf("served by %q, want the surviving owner %q", got, alive.ts.URL)
	}
	_, retries, _, _, _ := r.Metrics().Counters()
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
	var foundRetry bool
	for _, sp := range r.tracer.Snapshot() {
		if sp.Name == "retry" && sp.TraceID == "deadbeefdeadbeef" {
			foundRetry = true
		}
	}
	if !foundRetry {
		t.Fatal("no retry span joined to the request trace")
	}
}

func TestRouterRetries503ButNotExpired(t *testing.T) {
	unavailable := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"draining","kind":"unavailable"}`)
	})
	alive := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{}, unavailable.ts.URL, alive.ts.URL)

	model := keyWithPrimary(t, r.Ring(), unavailable.ts.URL)
	resp, raw := postInfer(t, ts.URL, model, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("503 not retried: HTTP %d: %s", resp.StatusCode, raw)
	}

	// 503 kind "expired" is the request's own deadline: relay, never retry.
	expired := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"deadline passed","kind":"expired"}`)
	}
	h := http.HandlerFunc(expired)
	unavailable.infer.Store(&h)
	aliveHits := alive.hits.Load()
	resp, raw = postInfer(t, ts.URL, model, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("expired")) {
		t.Fatalf("expired 503 mishandled: HTTP %d: %s", resp.StatusCode, raw)
	}
	if alive.hits.Load() != aliveHits {
		t.Fatal("router retried a request whose deadline already expired")
	}
}

func TestRouterNeverRetriesRelayedResponses(t *testing.T) {
	bad := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"boom","kind":"internal"}`)
	})
	other := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{}, bad.ts.URL, other.ts.URL)

	model := keyWithPrimary(t, r.Ring(), bad.ts.URL)
	resp, _ := postInfer(t, ts.URL, model, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want the node's 500 relayed", resp.StatusCode)
	}
	if other.hits.Load() != 0 {
		t.Fatal("router retried after relaying a response-bearing failure")
	}
}

func TestRouterHedgesInteractiveRequests(t *testing.T) {
	slow := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		io.WriteString(w, `{"model":"m","results":[{"argmax":1}]}`)
	})
	fast := newStub(t, ok200(`{"model":"m","results":[{"argmax":2}]}`))
	r, ts := newTestRouter(t, Options{HedgeFallback: 30 * time.Millisecond}, slow.ts.URL, fast.ts.URL)

	model := keyWithPrimary(t, r.Ring(), slow.ts.URL)
	start := time.Now()
	resp, raw := postInfer(t, ts.URL, model, map[string]string{serve.ClassHeader: "interactive"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Rtmap-Node"); got != fast.ts.URL {
		t.Fatalf("winner %q, want the hedged node %q", got, fast.ts.URL)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not cut the tail: %v", elapsed)
	}
	_, _, _, hedgeWins, _ := r.Metrics().Counters()
	if hedgeWins != 1 {
		t.Fatalf("hedgeWins = %d, want 1", hedgeWins)
	}
	// Standard-class traffic must not hedge.
	fastHits := fast.hits.Load()
	fastBody := ok200(`{"model":"m","results":[]}`)
	slow.infer.Store(&fastBody)
	if resp, _ := postInfer(t, ts.URL, model, nil); resp.StatusCode != http.StatusOK {
		t.Fatal("standard request failed")
	}
	if fast.hits.Load() != fastHits {
		t.Fatal("standard-class request hedged")
	}
}

func TestRouterShedsWhenAllOwnersDown(t *testing.T) {
	a := newStub(t, ok200(`{}`))
	b := newStub(t, ok200(`{}`))
	r, ts := newTestRouter(t, Options{}, a.ts.URL, b.ts.URL)
	for _, n := range []string{a.ts.URL, b.ts.URL} {
		for i := 0; i < 3; i++ {
			r.health.observe(n, false, errors.New("probe failed"), true)
		}
		if got := r.health.State(n); got != StateDown {
			t.Fatalf("setup: %s state %v, want down", n, got)
		}
	}
	resp, raw := postInfer(t, ts.URL, "anymodel", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d: %s, want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cluster-level shed without Retry-After")
	}
	if a.hits.Load()+b.hits.Load() != 0 {
		t.Fatal("router proxied to a down node")
	}
	_, _, _, _, sheds := r.Metrics().Counters()
	if sheds != 1 {
		t.Fatalf("sheds = %d, want 1", sheds)
	}
}

func TestRouterRetryBudgetCapsRetries(t *testing.T) {
	always503 := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"x","kind":"unavailable"}`)
	}
	a := newStub(t, always503)
	b := newStub(t, always503)
	r, ts := newTestRouter(t, Options{BudgetEarn: 0.001, BudgetBurst: 1, MaxAttempts: 3}, a.ts.URL, b.ts.URL)

	// First request spends the whole burst on its one retry...
	resp, _ := postInfer(t, ts.URL, "m", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want the relayed 503", resp.StatusCode)
	}
	hits1 := a.hits.Load() + b.hits.Load()
	if hits1 != 2 {
		t.Fatalf("first request made %d attempts, want 2 (burst 1 allows one retry)", hits1)
	}
	// ...so the second gets no retries at all.
	postInfer(t, ts.URL, "m", nil)
	if got := a.hits.Load() + b.hits.Load() - hits1; got != 1 {
		t.Fatalf("exhausted budget still allowed %d attempts, want 1", got)
	}
	_, retries, _, _, _ := r.Metrics().Counters()
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
}

// TestRouterRejoinResetsBreaker wires the whole regression together: a
// node dies with an open breaker, rejoins via probation, and must be
// routable with a clean breaker immediately.
func TestRouterRejoinResetsBreaker(t *testing.T) {
	a := newStub(t, ok200(`{"model":"m","results":[]}`))
	b := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{}, a.ts.URL, b.ts.URL)
	node := a.ts.URL

	// Death: breaker opens, health confirms down.
	for i := 0; i < 5; i++ {
		r.breakers.Observe(node, false, time.Now())
	}
	for i := 0; i < 3; i++ {
		r.health.observe(node, false, errors.New("probe failed"), true)
	}
	if r.breakers.State(node) != BreakerOpen || r.health.State(node) != StateDown {
		t.Fatal("setup: node should be down with an open breaker")
	}

	// Rejoin: one good probe moves down -> probation and fires the hook.
	r.health.observe(node, true, nil, true)
	if got := r.health.State(node); got != StateProbation {
		t.Fatalf("state %v after rejoin probe, want probation", got)
	}
	if got := r.breakers.State(node); got != BreakerClosed {
		t.Fatalf("breaker %v after rejoin, want closed (clean slate)", got)
	}

	// And the node takes traffic right away.
	model := keyWithPrimary(t, r.Ring(), node)
	resp, _ := postInfer(t, ts.URL, model, nil)
	if resp.StatusCode != http.StatusOK || a.hits.Load() == 0 {
		t.Fatalf("rejoined node not serving: HTTP %d, hits %d", resp.StatusCode, a.hits.Load())
	}
}

// TestRouterDeadlineBudgetShrinksAcrossRetries: each attempt must see
// the deadline budget that is actually left, not the client's original —
// forwarding it verbatim would restart the full budget on every retry.
func TestRouterDeadlineBudgetShrinksAcrossRetries(t *testing.T) {
	var firstDeadline, secondDeadline atomic.Value
	flaky := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		firstDeadline.Store(r.Header.Get(serve.DeadlineHeader))
		time.Sleep(20 * time.Millisecond) // burn visible budget
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"x","kind":"unavailable"}`)
	})
	alive := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		secondDeadline.Store(r.Header.Get(serve.DeadlineHeader))
		ok200(`{"model":"m","results":[]}`)(w, r)
	})
	r, ts := newTestRouter(t, Options{DisableHedge: true}, flaky.ts.URL, alive.ts.URL)

	model := keyWithPrimary(t, r.Ring(), flaky.ts.URL)
	resp, raw := postInfer(t, ts.URL, model, map[string]string{serve.DeadlineHeader: "5000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	d1, err1 := strconv.ParseFloat(firstDeadline.Load().(string), 64)
	d2, err2 := strconv.ParseFloat(secondDeadline.Load().(string), 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable forwarded deadlines %v / %v", firstDeadline.Load(), secondDeadline.Load())
	}
	if d1 <= 0 || d1 > 5000 || d2 <= 0 {
		t.Fatalf("forwarded deadlines out of range: first %g, second %g", d1, d2)
	}
	if d2 >= d1 {
		t.Fatalf("retry saw budget %gms >= first attempt's %gms; remaining budget must shrink", d2, d1)
	}
}

// TestRouterStopsRetryingPastDeadline: once the deadline is spent, the
// router must give up instead of handing later attempts the full
// class-base timeout.
func TestRouterStopsRetryingPastDeadline(t *testing.T) {
	hang := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	alive := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{DisableHedge: true}, hang.ts.URL, alive.ts.URL)

	model := keyWithPrimary(t, r.Ring(), hang.ts.URL)
	start := time.Now()
	// Standard class (10s base): the 100ms deadline must clamp the first
	// attempt and then stop the policy cold.
	resp, _ := postInfer(t, ts.URL, model, map[string]string{serve.DeadlineHeader: "100"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503 for the expired request", resp.StatusCode)
	}
	if alive.hits.Load() != 0 {
		t.Fatal("router retried after the deadline expired")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("expired request held for %v; must end near its 100ms deadline", elapsed)
	}
}

// TestRouterReleasesHalfOpenTrialOnBudgetExhaustion: when the breaker
// admits a half-open trial but the retry budget refuses the attempt, the
// trial admission must be released — a leaked trial would refuse the
// node forever.
func TestRouterReleasesHalfOpenTrialOnBudgetExhaustion(t *testing.T) {
	primary := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"x","kind":"unavailable"}`)
	})
	halfOpen := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{DisableHedge: true, BudgetEarn: 0.001, BudgetBurst: 0.5},
		primary.ts.URL, halfOpen.ts.URL)

	// Open the second owner's breaker with failures old enough that the
	// cooloff has elapsed: the next Allow admits a half-open trial.
	past := time.Now().Add(-time.Minute)
	for i := 0; i < 5; i++ {
		r.breakers.Observe(halfOpen.ts.URL, false, past)
	}
	if r.breakers.State(halfOpen.ts.URL) != BreakerOpen {
		t.Fatal("setup: breaker should be open")
	}

	// Attempt 1 relays the primary's 503 after the retry toward the
	// half-open node is refused by the empty budget (burst 0.5 < 1).
	model := keyWithPrimary(t, r.Ring(), primary.ts.URL)
	resp, _ := postInfer(t, ts.URL, model, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want the relayed 503", resp.StatusCode)
	}
	if halfOpen.hits.Load() != 0 {
		t.Fatal("budget-refused attempt still reached the node")
	}
	// The trial admission must not have leaked: the node is admitted
	// again as soon as something asks.
	if !r.breakers.Allow(halfOpen.ts.URL, time.Now()) {
		t.Fatal("half-open trial leaked: node permanently refused after a budget-exhausted admission")
	}
}

func TestRouterAttemptTimeoutFailsOverHangs(t *testing.T) {
	hang := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	alive := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{
		DisableHedge: true,
		Timeout:      dispatch.AttemptTimeouts{Interactive: 50 * time.Millisecond},
	}, hang.ts.URL, alive.ts.URL)

	model := keyWithPrimary(t, r.Ring(), hang.ts.URL)
	start := time.Now()
	resp, raw := postInfer(t, ts.URL, model, map[string]string{serve.ClassHeader: "interactive"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung node stalled the request for %v", elapsed)
	}
}

// A Router built with Transport nil must keep its connections to a node:
// 16 concurrent requests, 20 rounds, should open about 16 sockets and
// reuse them. With http.DefaultTransport's two idle connections per
// host, 14 of every round's 16 requests dial (≈ 280 in total).
func TestRouterDefaultTransportKeepsNodeConnections(t *testing.T) {
	const concurrent, rounds = 16, 20
	// Hold every request of a round in the node until all have arrived,
	// so each round really needs `concurrent` connections at once.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived, round := 0, 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		if arrived++; arrived == concurrent {
			arrived = 0
			round++
			cond.Broadcast()
		} else {
			for mine := round; mine == round; {
				cond.Wait()
			}
		}
		mu.Unlock()
		ok200(`{"model":"m","results":[]}`)(w, r)
	})
	var opened atomic.Int32
	node := httptest.NewUnstartedServer(mux)
	node.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	node.Start()
	t.Cleanup(node.Close)

	_, ts := newTestRouter(t, Options{Transport: nil}, node.URL)
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for c := 0; c < concurrent; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(`{"model":"m","inputs":[[1,2,3]]}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("HTTP %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	if n := opened.Load(); n >= 40 {
		t.Fatalf("router opened %d connections to one node for %d rounds of %d concurrent requests, want < 40", n, rounds, concurrent)
	}
}

// Every call of the /v1/infer handler is counted exactly once, whichever
// way out it takes: the four exits before routing (draining, oversized
// body, unreadable body, no model name) used to be counted nowhere, so
// rtmap_router_requests_total could not be checked against what clients
// sent.
func TestRouterCountsEveryRequest(t *testing.T) {
	stub := newStub(t, ok200(`{"model":"m","results":[]}`))
	r, ts := newTestRouter(t, Options{MaxBodyBytes: 64}, stub.ts.URL)
	calls := []struct {
		name string
		body io.Reader
		prep func()
		want int
	}{
		{"relayed", strings.NewReader(`{"model":"m","inputs":[[1,2,3]]}`), nil, http.StatusOK},
		{"oversized body", strings.NewReader(`{"model":"m","inputs":[[` + strings.Repeat("1,", 64) + `1]]}`), nil, http.StatusRequestEntityTooLarge},
		{"unreadable body", iotest.ErrReader(errors.New("connection reset")), nil, http.StatusBadRequest},
		{"no model name", strings.NewReader(`{"inputs":[[1,2,3]]}`), nil, http.StatusBadRequest},
		{"draining", strings.NewReader(`{"model":"m","inputs":[[1,2,3]]}`), func() { r.draining.Store(true) }, http.StatusServiceUnavailable},
	}
	for _, c := range calls {
		if c.prep != nil {
			c.prep()
		}
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", c.body))
		if rec.Code != c.want {
			t.Errorf("%s: HTTP %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
		}
	}
	body := scrape(t, ts.URL)
	value := func(series string) int {
		m := regexp.MustCompile(`(?m)^` + series + ` (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("/metrics has no %s:\n%s", series, body)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	total, ok, failed := value("rtmap_router_requests_total"), value("rtmap_router_requests_ok_total"), value("rtmap_router_requests_failed_total")
	if total != len(calls) || ok != 1 || total != ok+failed {
		t.Errorf("requests_total %d, ok %d, failed %d after %d calls of which 1 relayed a 200", total, ok, failed, len(calls))
	}
	if n := value("rtmap_router_request_seconds_count"); n != len(calls) {
		t.Errorf("request_seconds_count %d, want %d", n, len(calls))
	}
}

// The router applies the node's trace intake rule: an ID longer than 64
// bytes is ignored — neither recorded in route spans nor forwarded to a
// node that would drop it, leaving two halves of a trace that never
// join — and a 64-byte one is honoured.
func TestRouterIgnoresOversizedTraceID(t *testing.T) {
	var forwarded atomic.Value
	stub := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		forwarded.Store(r.Header.Get(serve.TraceHeader))
		ok200(`{"model":"m","results":[]}`)(w, r)
	})
	r, ts := newTestRouter(t, Options{}, stub.ts.URL)
	for _, c := range []struct {
		id     string
		traced bool
	}{
		{strings.Repeat("a", trace.MaxIDLen), true},
		{strings.Repeat("b", trace.MaxIDLen+1), false},
	} {
		before := r.tracer.Total()
		if resp, raw := postInfer(t, ts.URL, "m", map[string]string{serve.TraceHeader: c.id}); resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
		want := ""
		if c.traced {
			want = c.id
		}
		if got := forwarded.Load(); got != want {
			t.Errorf("%d-byte trace ID: node saw %q, want %q", len(c.id), got, want)
		}
		if recorded := r.tracer.Total() > before; recorded != c.traced {
			t.Errorf("%d-byte trace ID: route span recorded = %v, want %v", len(c.id), recorded, c.traced)
		}
	}
}

// The router's /debug/traces is the node's: same document, same
// ?trace= and ?model= filters (rtmap-load -trace-sample sends ?model= to
// whichever tier it is pointed at).
func TestRouterTracesEndpointFilters(t *testing.T) {
	stub := newStub(t, ok200(`{"model":"m","results":[]}`))
	_, ts := newTestRouter(t, Options{}, stub.ts.URL)
	for _, rq := range [][2]string{{"m1", "trace-one"}, {"m2", "trace-two"}, {"m2", "trace-three"}} {
		if resp, raw := postInfer(t, ts.URL, rq[0], map[string]string{serve.TraceHeader: rq[1]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	}
	for _, c := range []struct {
		query string
		want  []string // trace IDs, oldest first
	}{
		{"", []string{"trace-one", "trace-two", "trace-three"}},
		{"?trace=trace-two", []string{"trace-two"}},
		{"?model=m2", []string{"trace-two", "trace-three"}},
		{"?model=m2&trace=trace-one", []string{}},
	} {
		resp, err := http.Get(ts.URL + "/debug/traces" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		var d trace.Dump
		err = json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := []string{}
		for _, sp := range d.Spans {
			got = append(got, sp.TraceID)
		}
		if !slices.Equal(got, c.want) || d.TotalRecorded != 3 || d.Dropped != 0 {
			t.Errorf("/debug/traces%s: traces %v (total %d, dropped %d), want %v of 3 recorded", c.query, got, d.TotalRecorded, d.Dropped, c.want)
		}
	}
}
