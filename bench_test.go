package rtmap

// One benchmark per evaluation artifact of the paper (DESIGN.md §5):
//
//	Table II rows    → BenchmarkTable2_* (per network and system)
//	Table II #Adds   → BenchmarkTable2_OpCounts_*
//	Fig. 4 (both)    → BenchmarkFigure4
//	the ledger       → BenchmarkLedger (Table II plus the §IV-A and §V claims)
//
// plus micro-benchmarks of the core primitives. Each iteration performs
// the complete experiment (compile + analyze), so `go test -bench . -benchtime 1x`
// regenerates every artifact once; reported ns/op is the experiment's
// wall time. The experiment benchmarks use DefaultCompileConfig and
// therefore share the process-wide artifact cache: repeated iterations
// (and artifacts that recompile the same network) reuse lowered layers,
// exactly as the production sweep paths do. The *_ColdCache benchmark
// measures the uncached compile.

import (
	"fmt"
	"testing"

	"rtmap/internal/core"
	"rtmap/internal/dfg"
	"rtmap/internal/sim"
	"rtmap/internal/ternary"
	"rtmap/internal/workload"
	"rtmap/internal/xbar"

	"math/rand/v2"
)

func benchCompileAnalyze(b *testing.B, build func(ModelConfig) *Network, bits int, sparsity float64, cse bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := build(ModelConfig{ActBits: bits, Sparsity: sparsity, Seed: 1})
		cfg := DefaultCompileConfig()
		cfg.CSE = cse
		comp, err := Compile(net, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep := Analyze(comp)
		b.ReportMetric(rep.EnergyUJ(), "uJ/inf")
		b.ReportMetric(rep.LatencyMS(), "ms/inf")
		b.ReportMetric(float64(comp.PoolArrays), "arrays")
	}
}

// Table II row: ResNet-18/ImageNet, RTM-AP unroll+CSE at 4 bit (ledger
// rows resnet18.rtm.*).
func BenchmarkTable2_ResNet18_RTMAP_4bit(b *testing.B) {
	benchCompileAnalyze(b, BuildResNet18, 4, 0.8, true)
}

// Table II row: ResNet-18 at 8-bit activations (ledger rows resnet18.rtm.*8).
func BenchmarkTable2_ResNet18_RTMAP_8bit(b *testing.B) {
	benchCompileAnalyze(b, BuildResNet18, 8, 0.8, true)
}

// Table II ablation: ResNet-18 with the `unroll` configuration only.
func BenchmarkTable2_ResNet18_RTMAP_Unroll(b *testing.B) {
	benchCompileAnalyze(b, BuildResNet18, 4, 0.8, false)
}

// Table II row: VGG-9/CIFAR10 at sparsity 0.85 (ledger rows vgg9.s85.*).
func BenchmarkTable2_VGG9_RTMAP_4bit(b *testing.B) {
	benchCompileAnalyze(b, BuildVGG9, 4, 0.85, true)
}

// Table II row: VGG-9 at sparsity 0.9 (ledger rows vgg9.s90.*).
func BenchmarkTable2_VGG9_RTMAP_Sparse90(b *testing.B) {
	benchCompileAnalyze(b, BuildVGG9, 4, 0.9, true)
}

// Table II row: VGG-11/CIFAR10 at sparsity 0.85 (ledger rows vgg11.s85.*).
func BenchmarkTable2_VGG11_RTMAP_4bit(b *testing.B) {
	benchCompileAnalyze(b, BuildVGG11, 4, 0.85, true)
}

// Table II baseline rows: DNN+NeuroSim on ResNet-18 at 4 and 8 bit
// (ledger rows resnet18.xbar.*).
func BenchmarkTable2_ResNet18_NeuroSim(b *testing.B) {
	net := BuildResNet18(ModelConfig{ActBits: 4, Sparsity: 0.8, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r4 := xbar.Analyze(net, xbar.Default(), 4)
		r8 := xbar.Analyze(net, xbar.Default(), 8)
		b.ReportMetric(r4.EnergyUJ(), "uJ/inf-4b")
		b.ReportMetric(r8.EnergyUJ(), "uJ/inf-8b")
		b.ReportMetric(r4.LatencyMS(), "ms/inf-4b")
	}
}

// Table II baseline row: DeepCAM on VGG-11 (ledger rows vgg11.deepcam.*).
func BenchmarkTable2_VGG11_DeepCAM(b *testing.B) {
	net := BuildVGG11(ModelConfig{ActBits: 4, Sparsity: 0.85, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analyzeDeepCAM(net, defaultDeepCAM())
		b.ReportMetric(r.EnergyPJ/1e6, "uJ/inf")
		b.ReportMetric(float64(r.Arrays), "arrays")
	}
}

// Table II "#Adds/Subs" columns on ResNet-18 (ledger rows resnet18.adds.*).
func BenchmarkTable2_OpCounts_ResNet18(b *testing.B) {
	net := BuildResNet18(ModelConfig{ActBits: 4, Sparsity: 0.8, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oc, err := CountOps(net)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(oc.Unroll)/1e3, "kAdds-unroll")
		b.ReportMetric(float64(oc.CSE)/1e3, "kAdds-cse")
	}
}

// Fig. 4, both panels: per-layer energy breakdown and latency for
// ResNet-18 under NeuroSim / unroll / unroll+CSE.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure4(DefaultFigure4Options())
		if err != nil {
			b.Fatal(err)
		}
		tot := res.Energy.Totals()
		var cse float64
		for _, layer := range tot {
			cse += layer[2]
		}
		b.ReportMetric(cse, "uJ-cse-total")
		b.ReportMetric(float64(len(res.Energy.Layers)), "layers")
	}
}

// BenchmarkLedger measures every paper number the tree reproduces once
// per iteration (ledger.go), reporting the §V claims.
func BenchmarkLedger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := Ledger(1, SharedCompileCache())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range l {
			switch r.ID {
			case "cse.average":
				b.ReportMetric(r.Got, "%reduction")
			case "movement.rtm":
				b.ReportMetric(r.Got, "%rtm-move")
			case "movement.xbar":
				b.ReportMetric(r.Got, "%xbar-move")
			case "endurance.lifetime":
				b.ReportMetric(r.Got, "years")
			}
		}
	}
}

// Functional AP simulation throughput (the ap.Machine engine) on a small
// network, including the bit-exactness check against the reference.
func BenchmarkFunctionalSimTinyCNN(b *testing.B) {
	net := BuildTinyCNN(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := workload.Inputs(net.InputShape, 1, 3)[0]
	ref, err := net.ForwardInt(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := RunFunctional(comp, in)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Logits().Equal(ref.Logits()) {
			b.Fatal("functional simulation diverged")
		}
	}
}

// Micro-benchmark: greedy signed-pair CSE on a deep-layer weight slice
// (512×9, the dominant compile cost) at the zoo's default sparsity 0.8
// and at 0.5, where each row holds about twice as many pairs.
func BenchmarkDFGBuildCSE(b *testing.B) {
	for _, sparsity := range []float64{0.8, 0.5} {
		b.Run(fmt.Sprintf("sparsity%.1f", sparsity), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 2))
			s := ternary.Random(rng, 512, 1, 3, 3, sparsity).Slice(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := dfg.Build(s, dfg.Options{CSE: true})
				if g.NumOps() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// Micro-benchmark: whole-network compilation of VGG-9, cold: each
// iteration compiles into an empty artifact cache, so every layer is
// lowered (the parallel driver is active).
func BenchmarkCompileVGG9(b *testing.B) {
	net := BuildVGG9(ModelConfig{ActBits: 4, Sparsity: 0.85, Seed: 1})
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Cache = core.NewCache()
		if _, err := core.Compile(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmark: full ResNet-18 lowering with caching disabled — the
// cost of one cold compile (the parallel driver is still active).
func BenchmarkCompileResNet18_ColdCache(b *testing.B) {
	net := BuildResNet18(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.Cache = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmark: ResNet-18 recompilation against a warm artifact cache
// (the config-sweep path of Table II / Fig. 4): every conv layer is
// served content-addressed, so only hashing and the cheap layers remain.
func BenchmarkCompileResNet18_WarmCache(b *testing.B) {
	net := BuildResNet18(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.Cache = NewCompileCache()
	if _, err := Compile(net, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := cfg.Cache.Stats()
	b.ReportMetric(float64(s.Hits)/float64(max(1, s.Hits+s.Misses))*100, "%hit")
}

// Micro-benchmark: analytic cost model over a compiled ResNet-18.
func BenchmarkAnalyzeResNet18(b *testing.B) {
	net := BuildResNet18(DefaultModelConfig())
	comp, err := Compile(net, DefaultCompileConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sim.Analyze(comp)
		if rep.TotalLatencyNS <= 0 {
			b.Fatal("empty analysis")
		}
	}
}

// Ablation: the §IV-A optimization ladder on ResNet-18 — accumulate-only
// convention vs unroll vs unroll+CSE (arithmetic-level op counts).
func BenchmarkAblation_OptimizationLadder(b *testing.B) {
	net := BuildResNet18(ModelConfig{ActBits: 4, Sparsity: 0.8, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oc, err := CountOps(net)
		if err != nil {
			b.Fatal(err)
		}
		comp, err := Compile(net, DefaultCompileConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(comp.TotalNaive())/1e3, "kOps-accumulate")
		b.ReportMetric(float64(oc.Unroll)/1e3, "kOps-unroll")
		b.ReportMetric(float64(oc.CSE)/1e3, "kOps-cse-ideal")
		b.ReportMetric(float64(comp.TotalAddSub())/1e3, "kOps-cse-executed")
	}
}

// Ablation: activation precision sweep (the custom-integer-types lever of
// §IV-A) on VGG-9.
func BenchmarkAblation_ActivationBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{2, 4, 6, 8} {
			net := BuildVGG9(ModelConfig{ActBits: bits, Sparsity: 0.85, Seed: 1})
			comp, err := Compile(net, DefaultCompileConfig())
			if err != nil {
				b.Fatal(err)
			}
			rep := Analyze(comp)
			b.ReportMetric(rep.EnergyUJ(), fmt.Sprintf("uJ-%db", bits))
		}
	}
}

// Ablation: weight sparsity sweep on VGG-11 (Table II evaluates 0.85/0.9;
// energy and op counts should fall with sparsity).
func BenchmarkAblation_Sparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sp := range []float64{0.8, 0.85, 0.9, 0.95} {
			net := BuildVGG11(ModelConfig{ActBits: 4, Sparsity: sp, Seed: 1})
			comp, err := Compile(net, DefaultCompileConfig())
			if err != nil {
				b.Fatal(err)
			}
			rep := Analyze(comp)
			b.ReportMetric(rep.EnergyUJ(), fmt.Sprintf("uJ-s%.0f", sp*100))
		}
	}
}
