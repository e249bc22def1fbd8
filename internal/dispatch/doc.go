// Package dispatch holds the serving scheduler's policy logic: priority
// classes and deadlines (request.go), work-conserving, deadline-aware
// micro-batch formation (former.go: dispatch to an idle device at once,
// batch only what queues behind busy ones), queue-delay estimation and load shedding
// (shed.go), replica/device placement selection (place.go), and the
// replica/stage autoscaler (scaler.go). The load generator's class-mix
// schedule (request.go) and the one retry backoff (timeout.go) live here.
//
// Everything in this package is pure policy: no goroutines, no
// channels, no wall-clock reads. Time enters exclusively through
// explicit parameters (or the Clock interface in clock.go), which is
// what makes the fake-clock test suite deterministic. The mechanics —
// queues, device goroutines, HTTP — stay in internal/serve, which feeds
// this package snapshots and applies its decisions.
//
// The name is "dispatch" rather than "sched" because the Go toolchain
// reserves internal/sched inside GOROOT and tooling confuses the two.
package dispatch
