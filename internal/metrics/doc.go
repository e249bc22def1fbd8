// Package metrics holds the Prometheus text-exposition primitives the
// serving node (internal/serve) and the cluster router (internal/cluster)
// share, so the two /metrics endpoints render one histogram layout from
// one implementation, and the one nearest-rank percentile the load
// generator, the trace analyzer and the router's hedge delay report from.
package metrics
