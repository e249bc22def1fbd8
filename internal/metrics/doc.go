// Package metrics holds the Prometheus text-exposition primitives the
// serving node (internal/serve) and the cluster router (internal/cluster)
// share, so the two /metrics endpoints render one histogram layout from
// one implementation.
package metrics
