// Package sim evaluates compiled networks on the RTM-AP model: an
// analytic performance/energy estimator driven by the figures of merit of
// §V (the same methodology as the paper's functional simulator), an exact
// functional executor that replays emitted AP programs on the lane-packed
// ap.Machine and proves bit-exactness against the software reference, and
// the §V-C write-endurance analysis.
//
// The batch and pipeline cost models extend the per-inference analysis
// to the serving layer: AnalyzeBatch prices back-to-back samples on one
// device under the pipelined-load model, and AnalyzePipeline prices a
// core.ShardPlan as a software pipeline across devices (stage fill and
// marginal latencies, inter-stage activation transfer cost, bottleneck
// throughput). ShardRun/ForwardAPSharded execute a sharded plan stage by
// stage, each stage isolated to the activations its predecessor shipped,
// bit-identically to single-device execution.
//
// Functional execution runs on the batched, pooled engine of exec.go:
// ForwardAPBatch/RunConvBatch lay a batch's im2col rows end to end so
// every (strip, tile) program is interpreted once per cache-sized block
// of them through precompiled ap.ExecPlans, on lane-packed arenas each
// task gathers straight from the input tensors (one grid load per tap,
// kernel rows of a stride-1 layer copied from kernel row pad), over a
// persistent worker pool. ForwardAP is the batch-of-one wrapper. The
// engine is a conv executor and nothing more: the layer walk, input
// validation and the integer semantics of every other layer kind are
// model.Network.ExecLayers, the same code model.Network.ForwardInt — the
// one oracle — runs with the software convolution plugged in.
package sim
