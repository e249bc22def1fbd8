// Package loadgen is the one client-side load generator, behind
// rtmap-load, the chaos harness's Drive and rtmap-bench -slo: small parts
// a caller composes, not a framework with modes.
//
//   - pacing (pace.go): Closed fires from a fixed set of workers, Open on
//     a due-time schedule. The open loop catches up on arrivals it wakes
//     late for instead of dropping them, and hands every call its due
//     time: latency owed from the schedule charges a stall to every
//     request it delays (no coordinated omission).
//   - the request (post.go): Post sends one /v1/infer Shot and returns an
//     Outcome, whose Category is the only status/error → category mapping
//     in the tree; InProcess serves the no-socket arms, Bodies builds the
//     body pool.
//   - the mix and the ledger (ledger.go): a weighted class schedule
//     indexed by call number, and one Record rule — 200 accepted (goodput
//     inside the class deadline), 429 shed, 503 "expired" expired, else
//     failed — so Sent == Accepted + Shed + Expired + Failed is the
//     client half of the request-conservation law.
//
// The retry backoff is dispatch.Backoff, shared with the router. What a
// caller does with an outcome beyond the ledger — retry it, compare its
// logits, fail the run on it — stays with the caller.
// benchmark/loadgen.go is the remaining separate copy (benchmark/ changes
// only in benchmark PRs).
package loadgen
