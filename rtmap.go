// Package rtmap is a full-stack reproduction of "Full-Stack Optimization
// for CAM-Only DNN Inference" (de Lima, Khan, Carro, Castrillon —
// DATE 2024): a compiler and simulator for ternary-weight DNN inference on
// associative processors built from racetrack-memory CAMs, together with
// the crossbar (DNN+NeuroSim-style) and DeepCAM-style baselines the paper
// compares against.
//
// The public API wraps the internal packages:
//
//   - Build* construct the paper's model zoo (ternary weights at the
//     evaluated sparsities, LSQ-style activation quantizers);
//   - Compile runs the full compilation flow of Fig. 3a (unroll, constant
//     folding, CSE, bitwidth annotation, column allocation, code
//     generation, accelerator mapping);
//   - Analyze prices a compiled network with the figures of merit of §V;
//   - RunFunctional executes the compiled AP programs bit-exactly;
//   - Table2 and Figure4 regenerate the paper's evaluation artifacts.
package rtmap

import (
	"context"
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/energy"
	"rtmap/internal/model"
	"rtmap/internal/serve"
	"rtmap/internal/sim"
	"rtmap/internal/tensor"
)

// Re-exported core types. Aliases keep the internal packages private while
// letting callers name the types they receive.
type (
	// Network is the ternary-weight network IR.
	Network = model.Network
	// ModelConfig parameterizes the model zoo builders.
	ModelConfig = model.Config
	// Compiled is a compiled network (mapping + programs + statistics).
	Compiled = core.Compiled
	// CompileConfig selects compiler options (CSE on/off, etc.).
	CompileConfig = core.Config
	// LayerPlan is the per-layer compilation result.
	LayerPlan = core.LayerPlan
	// Report is the analytic energy/latency analysis.
	Report = sim.Report
	// Params are the hardware figures of merit.
	Params = energy.Params
	// FloatTensor is an NCHW float32 tensor.
	FloatTensor = tensor.Float
	// IntTensor is an NCHW int32 code tensor.
	IntTensor = tensor.Int
	// IntTrace is a per-layer integer execution trace.
	IntTrace = model.IntTrace
	// OpCounts carries the Table II adds/subs metrics.
	OpCounts = core.OpCounts
	// CompileCache is a content-addressed store of per-layer compilation
	// artifacts; config sweeps over the same network reuse lowered layers.
	CompileCache = core.Cache
	// CompileCacheStats is a snapshot of cache hit/miss counters.
	CompileCacheStats = core.CacheStats
)

// NewCompileCache returns an empty compiled-artifact cache, for callers
// that want reuse isolated from the process-wide default.
func NewCompileCache() *CompileCache { return core.NewCache() }

// SharedCompileCache returns the process-wide cache that
// DefaultCompileConfig wires into every compile.
func SharedCompileCache() *CompileCache { return core.SharedCache }

// CompileConfigWithCache returns DefaultCompileConfig with the cache
// precedence rule every sweep entry point shares: a non-nil cache
// replaces the process-wide default, and noCache disables caching
// outright (and wins over cache).
func CompileConfigWithCache(cache *CompileCache, noCache bool) CompileConfig {
	cfg := DefaultCompileConfig()
	if cache != nil {
		cfg.Cache = cache
	}
	if noCache {
		cfg.Cache = nil
	}
	return cfg
}

// BuildResNet18 constructs the ImageNet-scale ResNet-18 of Table II.
func BuildResNet18(cfg ModelConfig) *Network { return model.ResNet18(cfg) }

// BuildVGG9 constructs the CIFAR10-scale VGG-9 of Table II.
func BuildVGG9(cfg ModelConfig) *Network { return model.VGG9(cfg) }

// BuildVGG11 constructs the CIFAR10-scale VGG-11 of Table II.
func BuildVGG11(cfg ModelConfig) *Network { return model.VGG11(cfg) }

// BuildMiniResNet18 constructs ResNet-18 at a reduced input resolution
// (identical weights and layer structure; used where full ImageNet
// resolution would make functional simulation needlessly slow).
func BuildMiniResNet18(cfg ModelConfig, h, w int) *Network {
	return model.MiniResNet18(cfg, h, w)
}

// BuildTinyCNN constructs a small sequential network (tests, quickstart).
func BuildTinyCNN(cfg ModelConfig) *Network { return model.TinyCNN(cfg) }

// BuildTinyResNet constructs a small residual network.
func BuildTinyResNet(cfg ModelConfig) *Network { return model.TinyResNet(cfg) }

// DefaultModelConfig returns the headline model configuration
// (4-bit activations, 0.8 sparsity).
func DefaultModelConfig() ModelConfig { return model.DefaultConfig() }

// DefaultCompileConfig returns the paper's unroll+CSE compiler setup.
func DefaultCompileConfig() CompileConfig { return core.DefaultConfig() }

// DefaultParams returns the figures of merit of §V.
func DefaultParams() Params { return energy.Default() }

// Compile runs the full compilation flow on net.
func Compile(net *Network, cfg CompileConfig) (*Compiled, error) {
	return core.Compile(net, cfg)
}

// Analyze prices a compiled network on the RTM-AP cost model.
func Analyze(c *Compiled) *Report { return sim.Analyze(c) }

// CountOps computes the Table II "#Adds/Subs" metrics (unroll vs
// unroll+CSE) at the arithmetic level. Results are memoized per layer in
// the shared compile cache.
func CountOps(net *Network) (OpCounts, error) {
	return core.CountOps(net, true, core.SharedCache)
}

// RunFunctional executes the compiled network's AP programs bit-exactly on
// the lane-packed ExecPlan engine, as a batch of one (requires
// CompileConfig.KeepPrograms), and returns the integer trace; it must
// equal Network.ForwardInt exactly.
func RunFunctional(c *Compiled, in *FloatTensor) (*IntTrace, error) {
	return sim.ForwardAP(c, in)
}

// RunFunctionalBatch executes a batch of inputs through the compiled
// network's AP programs in one engine pass: every (strip, tile,
// row-group) program is interpreted once with all items' im2col rows
// laid side by side, amortizing program interpretation the same way the
// CAM array amortizes one program over many rows. Each returned trace is
// bit-identical to RunFunctional on the corresponding input (requires
// CompileConfig.KeepPrograms).
func RunFunctionalBatch(c *Compiled, ins []*FloatTensor) ([]*IntTrace, error) {
	return sim.ForwardAPBatch(c, ins)
}

// Calibrate fits all activation quantizers of net on calibration inputs.
func Calibrate(net *Network, inputs []*FloatTensor) error {
	return model.Calibrate(net, inputs)
}

// Verify compiles net with programs retained, runs both the AP functional
// path and the software reference on the given inputs, and returns an
// error if any layer output differs by a single bit — the paper's
// "retaining software accuracy" property.
func Verify(net *Network, cfg CompileConfig, inputs []*FloatTensor) error {
	cfg.KeepPrograms = true
	c, err := core.Compile(net, cfg)
	if err != nil {
		return err
	}
	for n, in := range inputs {
		if err := VerifyInput(c, in); err != nil {
			return fmt.Errorf("rtmap: input %d: %w", n, err)
		}
	}
	return nil
}

// VerifyInput checks one input against the software reference on an
// already-compiled network (CompileConfig.KeepPrograms required): it runs
// the AP functional path and reports the first layer whose output differs
// by a single bit. Callers that verify many inputs compile once and call
// this per input (rtmap-sim's per-input verdicts work this way).
func VerifyInput(c *Compiled, in *FloatTensor) error {
	ref, err := c.Net.ForwardInt(in)
	if err != nil {
		return err
	}
	got, err := sim.ForwardAP(c, in)
	if err != nil {
		return err
	}
	for i := range c.Net.Layers {
		if !got.Outputs[i].Equal(ref.Outputs[i]) {
			return fmt.Errorf("layer %d (%s) diverges from software reference",
				i, c.Net.Layers[i].Name)
		}
	}
	return nil
}

// Endurance estimates the device lifetime under continuous inference
// (§V-C: the paper estimates ≈31 years for ResNet-18).
func Endurance(c *Compiled, rep *Report) sim.EnduranceReport {
	return sim.Endurance(c, rep)
}

// AnalyzeBatch prices a batch of b back-to-back inferences of an analyzed
// network on one device under the pipelined-load model (the serving
// layer's unit of dispatch): the first sample pays the full latency, each
// further sample only max(compute, load) per layer, and energy scales
// linearly.
func AnalyzeBatch(rep *Report, b int) BatchReport { return sim.AnalyzeBatch(rep, b) }

// ReplicatedBatchReport prices a batch load-balanced across device-
// disjoint replicas (the serving layer's data-parallel axis).
type ReplicatedBatchReport = sim.ReplicatedBatchReport

// AnalyzeReplicatedBatch prices b samples dispatched across r replicas of
// an analyzed network, each replica on its own device: the batch finishes
// when the largest ceil(b/r) share does, the aggregate steady-state
// inter-sample interval divides by r, and energy scales with the sample
// count alone. r=1 degenerates to AnalyzeBatch.
func AnalyzeReplicatedBatch(rep *Report, b, r int) ReplicatedBatchReport {
	return sim.AnalyzeReplicatedBatch(rep, b, r)
}

// Pipeline sharding: partitioning a compiled plan into contiguous layer
// ranges and pricing/executing them as a software pipeline across the
// device fleet.
type (
	// ShardPlan partitions a compiled network into contiguous pipeline
	// stages with per-boundary activation transfer sets.
	ShardPlan = core.ShardPlan
	// StageRange is one stage of a ShardPlan.
	StageRange = core.StageRange
	// PipelineReport prices a sharded plan as a software pipeline
	// (per-stage fill/marginal latency, transfer cost, bottleneck).
	PipelineReport = sim.PipelineReport
	// StageReport is the per-stage entry of a PipelineReport.
	StageReport = sim.StageReport
)

// Partition splits a compiled plan into (up to) k contiguous stages
// balanced on the analytic per-layer latency of rep, minimizing the
// bottleneck stage (exact dynamic program). k clamps to the layer count.
func Partition(c *Compiled, rep *Report, k int) (*ShardPlan, error) {
	costs := make([]float64, len(rep.Layers))
	for i, lr := range rep.Layers {
		costs[i] = lr.LatencyNS
	}
	return core.Partition(c, k, costs)
}

// AnalyzePipeline prices a sharded plan as a software pipeline: stage
// fill and steady-state latencies, inter-stage activation transfer cost
// from the movement model, and steady-state throughput set by the
// bottleneck stage. For a one-stage plan it matches AnalyzeBatch.
func AnalyzePipeline(c *Compiled, rep *Report, sp *ShardPlan) (*PipelineReport, error) {
	return sim.AnalyzePipeline(c, rep, sp)
}

// AnalyzePipelineBatch prices b samples streamed through the pipeline:
// fill once, then one sample per bottleneck interval; energy scales
// linearly (including inter-stage transfers).
func AnalyzePipelineBatch(pr *PipelineReport, b int) BatchReport {
	return sim.AnalyzePipelineBatch(pr, b)
}

// RunFunctionalSharded executes the compiled network stage by stage under
// the shard plan, each stage isolated to the activations its predecessor
// shipped (requires CompileConfig.KeepPrograms). The trace is bit-identical
// to RunFunctional for every plan.
func RunFunctionalSharded(c *Compiled, sp *ShardPlan, in *FloatTensor) (*IntTrace, error) {
	return sim.ForwardAPSharded(c, sp, in)
}

// Serving layer: a concurrent HTTP/JSON inference server over the
// compiler and the simulated AP device fleet (internal/serve).
type (
	// ServeOptions configures the inference server (listen address,
	// device-fleet size, micro-batching knobs, registry capacity,
	// pipeline sharding, data-parallel replication, fault injection).
	ServeOptions = serve.Options
	// InferenceServer is the batched multi-tenant inference server.
	InferenceServer = serve.Server
	// BatchReport is the simulated cost of a batch dispatch.
	BatchReport = sim.BatchReport
)

// NewInferenceServer constructs an inference server (not yet listening).
// Use Listen/Serve to run it, Handler() to embed it, and Shutdown for a
// graceful drain.
func NewInferenceServer(opts ServeOptions) *InferenceServer { return serve.New(opts) }

// Serve runs the inference server until ctx is cancelled, then drains it
// gracefully (in-flight requests finish before the fleet winds down).
func Serve(ctx context.Context, opts ServeOptions) error {
	s := serve.New(opts)
	if _, err := s.Listen(); err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		if err := s.Shutdown(context.Background()); err != nil {
			return err
		}
		return <-errc
	}
}
