// Package sim evaluates compiled networks on the RTM-AP model: an
// analytic performance/energy estimator driven by the figures of merit of
// §V (the same methodology as the paper's functional simulator), an exact
// functional executor that replays emitted AP programs on the lane-packed
// ap.Machine and proves bit-exactness against the software reference, and
// the §V-C write-endurance analysis.
//
// One cost model extends the per-inference analysis to the serving
// layer: AnalyzePipeline partitions a compiled network into K stages
// (core.Partition on the analysis' per-layer latencies) and prices the
// result as a software pipeline across devices — stage fill and marginal
// latencies under the pipelined-load model, inter-stage activation
// transfer cost, per-stage wear, bottleneck throughput. StageReport.Batch
// and PipelineReport.Batch price a batch on one stage or on R replicas
// of the whole pipeline with the one batch formula; K = 1 is the whole
// model on one device, priced bit-for-bit as Analyze prices it.
// ShardRun/ForwardAPSharded execute a sharded plan stage by
// stage, each stage isolated to the activations its predecessor shipped,
// bit-identically to single-device execution.
//
// Functional execution runs on the batched, pooled engine of exec.go:
// ForwardAPBatch/RunConvBatch lay a batch's im2col rows end to end so
// every (strip, tile) program is interpreted once per cache-sized block
// of them through precompiled ap.ExecPlans, on lane-packed arenas each
// task loads straight from the input tensors through its part's load
// list (codegen.TileProgram.Loads: one grid load per input column and
// batch item, kernel rows of a stride-1 layer copied from kernel row
// pad, every row of a listed column written, so Reset clears only the
// columns no load names), over a persistent worker pool. Where feeding the workers would otherwise cut
// rows into blocks under four cache lines a column — vgg9's conv2_1 to
// conv3_2 at batch 1 — the task shape cuts each program into parts at
// channel boundaries instead (codegen.TileProgram.Parts): every part
// runs its ops once over every row, and the parts' partial sums add up
// like the strips' do. LayerShape reports the shape a layer gets. ForwardAP is the batch-of-one wrapper. The
// engine is a conv executor and nothing more: the layer walk, input
// validation and the integer semantics of every other layer kind are
// model.Network.ExecLayers, the same code model.Network.ForwardInt — the
// one oracle — runs with the software convolution plugged in. The one
// thing the engine takes from the walker is the epilogue that follows a
// conv (model.Requant): its act-quant, and the 2×2 stride-2 max-pool
// after that when the walker hands one (Requant.Pool). The task that
// finishes a row block's sums — for a block whose strips or parts run as
// separate tasks, the last of them to accumulate — requantizes those rows
// with the scale and clamps the walker hands it, in ap.Requantize's
// kernel, then max-pools them with its own loop (poolRows): taskShape
// makes every block whole rows of the pool's windows. So neither layer
// costs a serial pass on the caller, and the oracle's requantize and
// pool loops stay its own.
package sim
