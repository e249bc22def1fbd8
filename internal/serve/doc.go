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
// There is one batch executor (Fleet.execStage) and one cost model: every
// admitted model is a pipeline of K contiguous layer-range stages that
// sim.AnalyzePipeline partitions (balanced on the analytic per-layer
// latency) and prices, and a batch advances one stage per device visit,
// charged its stage's sim.StageReport.Batch price — latency, energy and
// wear — for the items it actually runs. K is 1 by default — the whole
// model on one device, priced exactly as the one-stage
// sim.PipelineReport.Batch prices the batch. A ShardStages option above 1
// deepens the same pipeline rather than selecting another path: every
// stage is pinned to a distinct fleet device and micro-batches stream
// device to device through the stages, so one large model occupies
// several simulated APs concurrently instead of serializing on one. Stage
// costs include the inter-stage activation transfers, and execution
// stays bit-identical at every K.
//
// There is one dispatch path too: every admitted model is R
// device-disjoint replicas of its pipeline, each batch goes to the live
// replica whose head device has the fewest queued batches, and the fault
// layer (FailDevice) requeues work from a dead device onto a surviving
// replica with bounded retries — re-execution is deterministic, so
// failover preserves bit-exact results. R is Options.Replicas, except
// that a one-stage model that does not autoscale gets one replica per
// device by default (New sets this starting placement). Per-replica health is exposed on /v1/models and /metrics;
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
