// Package metrics is the one /metrics implementation the serving node
// (internal/serve) and the cluster router (internal/cluster) share. A
// Registry holds families declared once — name, type, help, label names —
// and fed by instruments the request path updates (Counter, FloatCounter,
// Histogram: an atomic add or a per-histogram lock) or by collectors that
// report state living elsewhere at scrape time. Registry.Write is the only
// renderer of the Prometheus text format in the tree, RegisterRuntime adds
// the process's own health, and docs/ARCHITECTURE.md ("Metrics catalogue")
// lists what both tiers declare. Also here: NearestRank, the one
// percentile the load generator, the trace analyzer and the router's
// hedge delay report from.
package metrics
