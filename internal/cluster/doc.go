// Package cluster is the multi-node robustness tier: an HTTP router that
// consistent-hashes models across several rtmap-serve nodes and keeps
// serving through node failure with bounded, measured impact.
//
// The pieces compose front to back:
//
//   - Ring: a consistent hash ring mapping model keys to an ordered list
//     of owner nodes (virtual points for balance). Node death rebalances
//     ownership along the ring — only the dead node's share moves.
//   - Health: an actively probed member table. Each node walks a
//     failure-threshold state machine (up → suspect → down → probation →
//     up); the router routes only to nodes whose state admits traffic,
//     and a node rejoining after death restarts from a clean probation
//     and breaker state.
//   - Breaker: a per-node circuit breaker (closed → open → half-open)
//     fed by proxied-attempt outcomes, so a node that fails requests
//     faster than probes notice is shed quickly and re-admitted through
//     a single trial request.
//   - Budget: a per-model retry token bucket (retries spend, accepted
//     requests earn a fraction) so retry storms cannot amplify an
//     overload, plus the per-model attempt-latency tracker whose p95
//     sets the hedge delay.
//   - Router: the HTTP front tier. Every proxied /v1/infer runs under a
//     per-request robustness policy: class-derived deadline-aware
//     attempt timeouts (dispatch.AttemptTimeouts), capped-exponential-
//     backoff retries on safe errors only (connect failure, 503, node
//     down — never after response bytes arrived), hedged attempts for
//     interactive traffic (second attempt to the next owner after the
//     model's p95 delay, first response wins, loser cancelled), and
//     graceful degradation to 503 + Retry-After when every owner of a
//     model is open or down. /metrics exports per-node health, retry/
//     hedge/breaker counters and attempt-level latency histograms
//     (metrics.go; docs/ARCHITECTURE.md "Metrics catalogue");
//     route/retry/hedge spans join node-side traces through the
//     X-Rtmap-Trace header.
//   - FaultInjector: node-level fault injection at the router's
//     transport (kill, hang-without-close, slow, partition, flap),
//     shared by the rtmap-router -fault flag and the chaos harness in
//     cluster/chaos.
package cluster
