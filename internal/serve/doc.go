// Package serve is the traffic-facing layer of the stack: a concurrent
// HTTP/JSON inference server over the compiler and simulator. It keeps a
// registry of compiled models (compiled on demand through the
// content-addressed artifact cache, evicted by LRU), forms micro-batches
// per model, and dispatches them onto a simulated fleet of AP devices
// whose per-batch cost is priced by the internal/sim cost model. Batch
// formation is work-conserving: a request's samples enter together, leave
// at once when the model's placement has an idle device, and are held to
// coalesce with later arrivals only while every device is busy — until
// one frees (Fleet.idleOrWake), the batch fills, a deadline presses, or
// Options.Window, the cap on that hold, runs out. Every inference replays
// the emitted AP programs on the batched engine (sim.StepBatch); the
// quantized software reference it is bit-identical to (model.ForwardInt)
// is the oracle tests check served logits against, and nothing in this
// package runs it.
//
// There is one batch executor (Fleet.execStage): every admitted model is
// a pipeline of K contiguous layer-range stages (core.Partition, balanced
// on the analytic per-layer latency), and a batch advances one stage per
// device visit. K is 1 by default — the whole model on whichever device
// is least loaded, priced exactly as sim.AnalyzeBatch prices the batch.
// Options.ShardStages > 1 deepens the same pipeline rather than selecting
// another path: every stage is pinned to a distinct fleet device and
// micro-batches stream device to device through the stages, so one large
// model occupies several simulated APs concurrently instead of
// serializing on one. Stage costs (including inter-stage activation
// transfers) are priced by sim.AnalyzePipeline, and execution stays
// bit-identical at every K.
//
// Options.Replicas > 1 adds the data-parallel ("wide") axis: every
// admitted model gets R device-disjoint placements, batches balance
// across live replicas, and the fault layer (FailDevice) requeues work
// from a dead device onto a surviving replica with bounded retries —
// re-execution is deterministic, so failover preserves bit-exact
// results. Per-replica health is exposed on /v1/models and /metrics;
// everything /metrics exports is declared in metrics.go on an
// internal/metrics Registry (docs/ARCHITECTURE.md "Metrics catalogue").
// Admission failures a client can cause (a malformed model file behind
// Options.ModelFiles) are errors mapped to HTTP 400; panics are reserved
// for internal invariant violations (see docs/ARCHITECTURE.md).
//
// InferRequest and InferResponse are the client's documents. The server
// side of the request format is wire.go, shared with internal/cluster:
// a body is split at its "inputs" values, encoding/json decodes the
// hundred bytes around them, the router stops there, and the node parses
// the activations with the float conversion encoding/json itself uses
// (docs/ARCHITECTURE.md "Wire format").
package serve
