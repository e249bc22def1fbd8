package cluster

import (
	"time"

	"rtmap/internal/metrics"
)

// attemptBuckets are the upper bounds (seconds) of the attempt-latency
// histogram (Prometheus classic layout, le="+Inf" implied).
var attemptBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// attemptResult classifies one proxied attempt for the per-node counter.
type attemptResult int

const (
	attemptOK        attemptResult = iota // 2xx relayed
	attemptReject                         // 4xx/503 relayed (shed, expired, client error)
	attemptRefused                        // connect-level failure, safe to retry
	attemptTimeout                        // attempt deadline expired
	attemptError                          // transport failure after the request left
	attemptCancelled                      // our own cancellation (hedge loser, client gone) — not a node failure

	numAttemptResults = 6
)

// attemptResultNames index by attemptResult for the result label.
var attemptResultNames = [numAttemptResults]string{"ok", "rejected", "refused", "timeout", "error", "cancelled"}

// Metrics holds the instruments the router's request path updates, all
// resolved by NewMetrics: an observation is an atomic add or one
// histogram's own lock.
type Metrics struct {
	// ok and failed partition the calls of the /v1/infer handler, and
	// requests_total is rendered as their sum. A hedge is counted when its
	// race is decided: lost unless it delivered the winning response.
	ok, failed, hedgesLost, hedgeWins metrics.Counter
	sheds, retries, budgetExhausted   *metrics.Counter

	// attempts[i][result] counts proxied attempts against nodes[i]. The
	// membership is fixed, so the children exist before traffic does and
	// finding a node's row is a scan over a handful of names, no map.
	nodes    []string
	attempts [][numAttemptResults]*metrics.Counter

	attemptLat *metrics.Histogram // per-attempt wall time, all nodes
	requestLat *metrics.Histogram // per-request wall time through the router
}

// NewMetrics declares the router's request-path families on reg for the
// given (fixed) membership.
func NewMetrics(reg *metrics.Registry, nodes []string) *Metrics {
	counter := func(name, help string, labels ...string) *metrics.Family {
		return reg.Declare(metrics.KindCounter, name, help, labels...)
	}
	m := &Metrics{
		sheds:           counter("rtmap_router_sheds_total", "Requests the router refused (503) because no attempt produced an answer: no live owner, or the deadline ran out first.").Counter(),
		retries:         counter("rtmap_router_retries_total", "Attempts after a request's first, hedges excluded.").Counter(),
		budgetExhausted: counter("rtmap_router_retry_budget_exhausted_total", "Retries and hedges suppressed by an empty per-model retry budget.").Counter(),
		attemptLat:      reg.Declare(metrics.KindHistogram, "rtmap_router_attempt_seconds", "Wall time of one proxied attempt, all nodes.").Histogram(attemptBuckets),
		requestLat:      reg.Declare(metrics.KindHistogram, "rtmap_router_request_seconds", "Wall time of one request through the router, attempts and backoff included.").Histogram(attemptBuckets),
		nodes:           nodes,
		attempts:        make([][numAttemptResults]*metrics.Counter, len(nodes)),
	}
	requests := counter("rtmap_router_requests_total", "Calls of the router's /v1/infer handler: ok + failed, read in the same scrape.")
	ok := counter("rtmap_router_requests_ok_total", "Requests answered with a node's 2xx.")
	failed := counter("rtmap_router_requests_failed_total", "Requests answered with anything else: a relayed node error or a router-made refusal.")
	hedges := counter("rtmap_router_hedges_total", "Hedge attempts launched whose race has been decided.")
	hedgeWins := counter("rtmap_router_hedge_wins_total", "Hedge attempts that delivered the winning response.")
	reg.Collect(func(s *metrics.Scrape) {
		nOK, nFailed, wins := m.ok.Load(), m.failed.Load(), m.hedgeWins.Load()
		s.Int(requests, nOK+nFailed)
		s.Int(ok, nOK)
		s.Int(failed, nFailed)
		s.Int(hedges, m.hedgesLost.Load()+wins)
		s.Int(hedgeWins, wins)
	})
	attempts := counter("rtmap_router_attempts_total", "Proxied attempts by node and result (ok, rejected, refused, timeout, error, cancelled); a series appears with its first attempt.", "node", "result")
	attempts.Sparse = true
	for i, node := range nodes {
		for r, name := range attemptResultNames {
			m.attempts[i][r] = attempts.Counter(node, name)
		}
	}
	return m
}

// ObserveRequest records one finished call of the /v1/infer handler.
func (m *Metrics) ObserveRequest(wall time.Duration, ok bool) {
	if ok {
		m.ok.Inc()
	} else {
		m.failed.Inc()
	}
	m.requestLat.Observe(wall.Seconds())
}

// ObserveAttempt records one proxied attempt against one node.
func (m *Metrics) ObserveAttempt(node string, result attemptResult, wall time.Duration) {
	for i, n := range m.nodes {
		if n == node {
			m.attempts[i][result].Inc()
			break
		}
	}
	m.attemptLat.Observe(wall.Seconds())
}

// ObserveHedge records a decided hedge race; won reports that the hedge
// attempt delivered the winning response.
func (m *Metrics) ObserveHedge(won bool) {
	if won {
		m.hedgeWins.Inc()
	} else {
		m.hedgesLost.Inc()
	}
}

// Counters returns the headline counters (tests and the bench): handled
// requests, retries, hedges that did not win, hedges that did, sheds.
func (m *Metrics) Counters() (requests, retries, hedges, hedgeWins, sheds int64) {
	return m.ok.Load() + m.failed.Load(), m.retries.Load(), m.hedgesLost.Load(), m.hedgeWins.Load(), m.sheds.Load()
}

// collectMembership declares the families whose state lives in the health
// tracker and the breakers, fed from one Health.Snapshot per scrape.
func collectMembership(reg *metrics.Registry, health *Health, breakers *Breakers) {
	up := reg.Declare(metrics.KindGauge, "rtmap_router_node_up", "1 while the node is routable (up, suspect or probation), 0 once it is confirmed down; state names which.", "node", "state")
	probeFails := reg.Declare(metrics.KindCounter, "rtmap_router_node_probe_failures_total", "Failed /healthz probes of the node.", "node")
	opens := reg.Declare(metrics.KindCounter, "rtmap_router_breaker_opens_total", "Circuit-breaker transitions to open, all nodes.")
	resets := reg.Declare(metrics.KindCounter, "rtmap_router_breaker_resets_total", "Breakers reset because their node rejoined.")
	open := reg.Declare(metrics.KindGauge, "rtmap_router_breaker_open", "1 while the node's breaker is open.", "node")
	cycles := reg.Declare(metrics.KindCounter, "rtmap_router_health_cycles_total", "Completed probe rounds over the membership.")
	reg.Collect(func(s *metrics.Scrape) {
		for _, nh := range health.Snapshot() {
			s.Bool(up, nh.State != StateDown.String(), nh.Node, nh.State)
			s.Int(probeFails, nh.ProbeFail, nh.Node)
			s.Bool(open, breakers.State(nh.Node) == BreakerOpen, nh.Node)
		}
		nOpens, nResets := breakers.Stats()
		s.Int(opens, nOpens)
		s.Int(resets, nResets)
		s.Int(cycles, health.Cycles())
	})
}
