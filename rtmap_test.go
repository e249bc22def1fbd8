package rtmap

import (
	"math"
	"strings"
	"testing"

	"rtmap/internal/tensor"
	"rtmap/internal/workload"
	"rtmap/internal/xbar"
)

// TestVerifyTinyNetworks is the end-to-end statement of the paper's
// correctness claim through the public API: compiled AP execution is
// bit-identical to the quantized software reference on every layer.
func TestVerifyTinyNetworks(t *testing.T) {
	for _, build := range []func(ModelConfig) *Network{BuildTinyCNN, BuildTinyResNet} {
		net := build(DefaultModelConfig())
		inputs := workload.Inputs(net.InputShape, 3, 11)
		if err := Verify(net, DefaultCompileConfig(), inputs); err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
	}
}

// TestResNet18HeadlineRatios pins the calibrated reproduction of the
// paper's headline: ~3× faster and ~2.5× lower energy than the crossbar
// baseline, i.e. ~7.5× energy-efficiency improvement (Table II). Bands
// are generous — the claim is the shape, not the joules.
func TestResNet18HeadlineRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	net := BuildResNet18(ModelConfig{ActBits: 4, Sparsity: 0.8, Seed: 1})
	comp, err := Compile(net, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(comp)
	xb := xbar.Analyze(net, xbar.Default(), 4)

	if comp.PoolArrays != 49 {
		t.Errorf("#arrays = %d, want 49 (Table II)", comp.PoolArrays)
	}
	eRatio := xb.EnergyUJ() / rep.EnergyUJ()
	lRatio := xb.LatencyMS() / rep.LatencyMS()
	if eRatio < 1.4 || eRatio > 3.0 {
		t.Errorf("energy ratio %.2f outside [1.4, 3.0] (paper: 1.9×)", eRatio)
	}
	if lRatio < 2.0 || lRatio > 6.0 {
		t.Errorf("latency ratio %.2f outside [2.0, 6.0] (paper: 3.9×)", lRatio)
	}
	if eff := eRatio * lRatio; eff < 3.5 {
		t.Errorf("energy-efficiency product %.1f too low (paper: 7.5×)", eff)
	}
	// Absolute anchors within 2× of the paper's reported values.
	if rep.EnergyUJ() < 27 || rep.EnergyUJ() > 110 {
		t.Errorf("RTM-AP energy %.1f µJ far from paper's 55.04", rep.EnergyUJ())
	}
	if rep.LatencyMS() < 1.2 || rep.LatencyMS() > 5.0 {
		t.Errorf("RTM-AP latency %.2f ms far from paper's 2.46", rep.LatencyMS())
	}
}

// TestMovementShares pins §V-C: RTM-AP moves far less data than the
// crossbar (paper: ~3% vs 41% of energy).
func TestMovementShares(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	net := BuildResNet18(DefaultModelConfig())
	rtmShare, xbShare, err := MovementComparison(net, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rtmShare > 0.20 {
		t.Errorf("RTM-AP movement share %.2f too high (paper: ~0.03)", rtmShare)
	}
	if xbShare < 0.25 || xbShare > 0.55 {
		t.Errorf("crossbar movement share %.2f outside [0.25, 0.55] (paper: 0.41)", xbShare)
	}
	if xbShare < 2.5*rtmShare {
		t.Errorf("crossbar share (%.2f) should far exceed RTM-AP's (%.2f)", xbShare, rtmShare)
	}
}

// TestCSEReductionBand pins §V-A: CSE alone reduces additions by roughly
// a third (paper: 31% on average). Synthetic random ternary weights share
// somewhat more than trained ones, so the band is wide but must show a
// substantial reduction.
func TestCSEReductionBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size op counting")
	}
	avg, err := CSEReductionAverage(1, SharedCompileCache())
	if err != nil {
		t.Fatal(err)
	}
	if avg < 0.20 || avg > 0.75 {
		t.Errorf("average CSE reduction %.2f outside [0.20, 0.75] (paper: 0.31)", avg)
	}
}

// TestEnduranceBand pins §V-C: lifetime far beyond deployment horizons
// (paper: ~31 years from 10^16 cycles and ~100 ns rewrite interval).
func TestEnduranceBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	net := BuildResNet18(DefaultModelConfig())
	comp, err := Compile(net, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(comp)
	e := Endurance(comp, rep)
	if e.LifetimeYears < 5 {
		t.Errorf("lifetime %.1f years implausibly low (paper: ~31)", e.LifetimeYears)
	}
	if e.MeanRewriteIntervalNS <= 0 {
		t.Error("no rewrite interval computed")
	}
}

// TestEightBitScaling pins the Table II 4-bit → 8-bit trends: energy and
// latency both grow, energy by roughly the paper's 1.4×.
func TestEightBitScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	run := func(bits int) *Report {
		net := BuildVGG9(ModelConfig{ActBits: bits, Sparsity: 0.85, Seed: 1})
		comp, err := Compile(net, DefaultCompileConfig())
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(comp)
	}
	r4, r8 := run(4), run(8)
	eR := r8.EnergyUJ() / r4.EnergyUJ()
	lR := r8.LatencyMS() / r4.LatencyMS()
	if eR < 1.1 || eR > 2.5 {
		t.Errorf("8b/4b energy ratio %.2f outside [1.1, 2.5] (paper: 1.33)", eR)
	}
	if lR < 1.1 || lR > 3.0 {
		t.Errorf("8b/4b latency ratio %.2f outside [1.1, 3.0] (paper: 1.73)", lR)
	}
}

func TestVGGArraysPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	net := BuildVGG11(ModelConfig{ActBits: 4, Sparsity: 0.85, Seed: 1})
	comp, err := Compile(net, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if comp.PoolArrays != 4 {
		t.Errorf("VGG-11 arrays %d, want 4 (Table II)", comp.PoolArrays)
	}
}

func TestCountOpsConsistency(t *testing.T) {
	net := BuildTinyCNN(DefaultModelConfig())
	oc, err := CountOps(net)
	if err != nil {
		t.Fatal(err)
	}
	if oc.CSE > oc.Unroll {
		t.Errorf("CSE ops %d exceed unroll ops %d", oc.CSE, oc.Unroll)
	}
	if len(oc.PerLayer) == 0 {
		t.Error("no per-layer counts")
	}
	sum := 0
	for _, pl := range oc.PerLayer {
		sum += pl[1]
	}
	if sum != oc.CSE {
		t.Errorf("per-layer CSE sum %d != total %d", sum, oc.CSE)
	}
}

func TestFigure4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-size compiles")
	}
	res, err := Figure4(DefaultFigure4Options())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Energy.Layers) != 20 {
		t.Fatalf("Fig. 4 has %d layers, want 20", len(res.Energy.Layers))
	}
	if len(res.Latency.Layers) != 20 {
		t.Fatalf("latency panel has %d layers, want 20", len(res.Latency.Layers))
	}
	// §V-B: the deepest layers are slower on RTM-AP than on the crossbar
	// (row under-utilization as Hout·Wout shrinks) while early layers are
	// much faster.
	last := res.Latency.Values[len(res.Latency.Values)-2] // a layer4 conv
	if last[2] <= last[0] {
		t.Errorf("deep layer: unroll+CSE %.3f ms should exceed NeuroSim %.3f ms", last[2], last[0])
	}
	first := res.Latency.Values[1]
	if first[2] >= first[0] {
		t.Errorf("early layer: unroll+CSE %.3f ms should beat NeuroSim %.3f ms", first[2], first[0])
	}
	// CSE strictly improves on unroll in total energy.
	var unroll, cse float64
	for i := range res.Energy.Layers {
		for c, v := range res.Energy.Values[i][1] {
			_ = c
			unroll += v
		}
		for _, v := range res.Energy.Values[i][2] {
			cse += v
		}
	}
	if cse >= unroll {
		t.Errorf("unroll+CSE energy %.1f should be below unroll %.1f", cse, unroll)
	}
	if math.IsNaN(cse) || math.IsNaN(unroll) {
		t.Error("NaN in figure data")
	}
}

// TestShardingPublicAPI exercises the pipeline-sharding surface end to
// end: Partition balances on the analytic latencies, AnalyzePipeline
// collapses to AnalyzeBatch at K=1, and sharded functional replay stays
// bit-identical to RunFunctional.
func TestShardingPublicAPI(t *testing.T) {
	net := BuildTinyResNet(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(comp)

	one, err := Partition(comp, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	prOne, err := AnalyzePipeline(comp, rep, one)
	if err != nil {
		t.Fatal(err)
	}
	batch := AnalyzeBatch(rep, 8)
	pipe := AnalyzePipelineBatch(prOne, 8)
	if math.Abs(batch.LatencyNS-pipe.LatencyNS) > 1e-9*batch.LatencyNS {
		t.Errorf("K=1 pipeline batch %g ns != AnalyzeBatch %g ns", pipe.LatencyNS, batch.LatencyNS)
	}

	sp, err := Partition(comp, rep, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 3 {
		t.Fatalf("%d stages, want 3", len(sp.Stages))
	}
	pr, err := AnalyzePipeline(comp, rep, sp)
	if err != nil {
		t.Fatal(err)
	}
	if pr.BottleneckNS <= 0 || pr.SteadyInfersPerSec() <= 0 {
		t.Fatalf("degenerate pipeline report %+v", pr)
	}

	in := workload.Inputs(net.InputShape, 1, 5)[0]
	want, err := RunFunctional(comp, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFunctionalSharded(comp, sp, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Outputs {
		if !got.Outputs[i].Equal(want.Outputs[i]) {
			t.Fatalf("layer %d: sharded replay diverges from RunFunctional", i)
		}
	}
}

// Every functional entry validates the input against the network's
// CxHxW before quantizing it — the check ForwardInt always made — where
// an over-long tensor used to index past the input codes and a short one
// was silently zero-filled.
func TestRunFunctionalRejectsMisshapenInput(t *testing.T) {
	net := BuildTinyResNet(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Partition(comp, Analyze(comp), 2)
	if err != nil {
		t.Fatal(err)
	}
	good := workload.Inputs(net.InputShape, 1, 23)[0]
	is := net.InputShape
	shaped := func(c, h, w int) *FloatTensor {
		return tensor.NewFloat(tensor.Shape{N: 1, C: c, H: h, W: w})
	}
	for name, in := range map[string]*FloatTensor{
		"long":                             shaped(is.C, is.H+1, is.W),
		"short":                            shaped(is.C, is.H-1, is.W),
		"wrong C":                          shaped(is.C+1, is.H, is.W),
		"wrong W":                          shaped(is.C, is.H, is.W*2),
		"long data under the right shape":  {Shape: is, Data: append(append([]float32(nil), good.Data...), 0)},
		"short data under the right shape": {Shape: is, Data: good.Data[:len(good.Data)-1]},
	} {
		_, want := net.ForwardInt(in)
		if want == nil || !strings.Contains(want.Error(), "want CxHxW") {
			t.Fatalf("%s: ForwardInt: got %v, want an input-shape error", name, want)
		}
		for entry, run := range map[string]func() error{
			"RunFunctional":        func() error { _, err := RunFunctional(comp, in); return err },
			"RunFunctionalBatch":   func() error { _, err := RunFunctionalBatch(comp, []*FloatTensor{good, in}); return err },
			"RunFunctionalSharded": func() error { _, err := RunFunctionalSharded(comp, sp, in); return err },
		} {
			if err := run(); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s: got %v, want %v", name, entry, err, want)
			}
		}
	}
}

// TestRunFunctionalBatchPublicAPI states the execution engine's
// contract through the public API: RunFunctionalBatch is bit-identical
// per item to RunFunctional and to the software reference (ForwardInt).
func TestRunFunctionalBatchPublicAPI(t *testing.T) {
	net := BuildTinyResNet(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := workload.Inputs(net.InputShape, 4, 19)
	trs, err := RunFunctionalBatch(comp, ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		serial, err := RunFunctional(comp, in)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := net.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		for l := range net.Layers {
			if !trs[i].Outputs[l].Equal(serial.Outputs[l]) {
				t.Fatalf("item %d layer %d: batch != serial", i, l)
			}
			if !trs[i].Outputs[l].Equal(ref.Outputs[l]) {
				t.Fatalf("item %d layer %d: batch != ForwardInt", i, l)
			}
		}
	}
}
