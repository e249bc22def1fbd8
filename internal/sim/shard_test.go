package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

func partitionEven(t *testing.T, c *core.Compiled, rep *Report, k int) *core.ShardPlan {
	t.Helper()
	pr, err := AnalyzePipeline(c, rep, k)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Shard
}

// Sharded replay — each stage isolated to the tensors its predecessor
// shipped — must stay bit-identical to the single-device functional path
// on every stage count, including K=1, K=layer-count and over-asked K.
func TestForwardAPShardedBitExact(t *testing.T) {
	for _, name := range []string{"tinycnn", "tinyresnet"} {
		net := zooNet(t, name)
		c := compileNet(t, net, true)
		rep := Analyze(c)
		for seed := uint64(0); seed < 2; seed++ {
			in := randInput(seed, net.InputShape)
			want, err := ForwardAP(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 3, len(c.Layers), len(c.Layers) + 99} {
				sp := partitionEven(t, c, rep, k)
				got, err := ForwardAPSharded(c, sp, in)
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				for i := range want.Outputs {
					if !got.Outputs[i].Equal(want.Outputs[i]) {
						t.Fatalf("%s k=%d seed=%d: layer %d diverges from ForwardAP", name, k, seed, i)
					}
					if math.Abs(got.Scales[i]-want.Scales[i]) > 1e-12*math.Abs(want.Scales[i]) {
						t.Fatalf("%s k=%d: layer %d scale %g, want %g", name, k, i, got.Scales[i], want.Scales[i])
					}
				}
			}
		}
	}
}

// A sharded run stepped to completion serves model.ForwardInt's logits,
// and stepping past the last stage is an error.
func TestShardRunMatchesForwardInt(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, true)
	rep := Analyze(c)
	sp := partitionEven(t, c, rep, 3)
	in := randInput(11, net.InputShape)
	ref, err := net.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewShardRun(c, sp, in)
	if err != nil {
		t.Fatal(err)
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !run.Logits().Equal(ref.Logits()) {
		t.Fatalf("sharded logits %v, ForwardInt %v", run.Logits().Data, ref.Logits().Data)
	}
	if err := run.Step(); err == nil {
		t.Error("Step after Done must error")
	}
}

// Residency is the walker's check: a stage that reads a tensor its
// predecessor did not ship fails instead of reading state a real device
// would not hold.
func TestShardStageNonResidentInput(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, true)
	sp := partitionEven(t, c, Analyze(c), 3)
	short := *sp
	short.Stages = append([]core.StageRange(nil), sp.Stages...)
	// Withhold the tensor stage 1's first layer reads.
	dropped := net.Layers[sp.Stages[1].Lo].Inputs[0]
	short.Stages[0].XferRefs = nil
	for _, ref := range sp.Stages[0].XferRefs {
		if ref != dropped {
			short.Stages[0].XferRefs = append(short.Stages[0].XferRefs, ref)
		}
	}
	run, err := NewShardRun(c, &short, randInput(12, net.InputShape))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Step(); err != nil {
		t.Fatalf("stage 0: %v", err)
	}
	err = run.Step()
	want := fmt.Sprintf("layer %d output not resident", dropped)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("stage 1 without ref %d: got %v, want %q", dropped, err, want)
	}
}

// The residual-add scale check belongs to the shared walker, so a net
// whose skip and main branches land on different grids fails with the
// same error on the software reference, the AP engine and sharded replay.
func TestMismatchedResidualScalesFailEverywhere(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, true)
	sp := partitionEven(t, c, Analyze(c), 3)
	net.Layers[net.LayerByName("block1.qskip")].Q.Step *= 2
	in := randInput(13, net.InputShape)

	_, ref := net.ForwardInt(in)
	if ref == nil || !strings.Contains(ref.Error(), "block1.add") || !strings.Contains(ref.Error(), "residual scales differ") {
		t.Fatalf("ForwardInt: got %v, want a residual-scale error at block1.add", ref)
	}
	if _, err := ForwardAP(c, in); err == nil || err.Error() != ref.Error() {
		t.Errorf("ForwardAP: got %v, want %v", err, ref)
	}
	if _, err := ForwardAPSharded(c, sp, in); err == nil || !strings.HasSuffix(err.Error(), ref.Error()) {
		t.Errorf("ForwardAPSharded: got %v, want a stage error ending in %q", err, ref)
	}
}

// The "small ResNet slice": MiniResNet18 keeps ResNet-18's layer graph at
// a reduced resolution. Bit-exact sharded replay across a residual
// boundary is the acceptance bar for serving the real model sharded.
func TestForwardAPShardedMiniResNet(t *testing.T) {
	if testing.Short() {
		t.Skip("mini-ResNet functional replay")
	}
	net := model.MiniResNet18(model.DefaultConfig(), 16, 16)
	c := compileNet(t, net, true)
	rep := Analyze(c)
	in := randInput(3, net.InputShape)
	want, err := ForwardAP(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 7} {
		sp := partitionEven(t, c, rep, k)
		got, err := ForwardAPSharded(c, sp, in)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !got.Logits().Equal(want.Logits()) {
			t.Fatalf("k=%d: sharded logits diverge", k)
		}
		for i := range want.Outputs {
			if !got.Outputs[i].Equal(want.Outputs[i]) {
				t.Fatalf("k=%d: layer %d diverges", k, i)
			}
		}
	}
}

// A one-stage pipeline prices a batch exactly as the single-device
// analysis does: its first sample is TotalLatencyNS, its energy is linear
// in the analysis total, and the pipeline's batch is its only stage's.
func TestAnalyzePipelineK1MatchesAnalyzeBatch(t *testing.T) {
	net := model.TinyCNN(model.DefaultConfig())
	c := compileNet(t, net, false)
	rep := Analyze(c)
	pr, err := AnalyzePipeline(c, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 4, 32} {
		want := pr.Stages[0].Batch(b)
		got := pr.Batch(b, 1)
		if got != want {
			t.Errorf("b=%d: pipeline batch %+v, its stage's %+v", b, got, want)
		}
		if got.FirstNS != rep.TotalLatencyNS {
			t.Errorf("b=%d: FirstNS %g, analysis TotalLatencyNS %g", b, got.FirstNS, rep.TotalLatencyNS)
		}
		if got.EnergyPJ != float64(b)*rep.Total.TotalPJ() {
			t.Errorf("b=%d: EnergyPJ %g, %d × analysis %g", b, got.EnergyPJ, b, rep.Total.TotalPJ())
		}
	}
}

func TestAnalyzePipelineAccounting(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, false)
	pr, err := AnalyzePipeline(c, Analyze(c), 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := pr.Shard
	if len(pr.Stages) != len(sp.Stages) {
		t.Fatalf("%d stage reports for %d stages", len(pr.Stages), len(sp.Stages))
	}
	var fill, energy, bottleneck float64
	for si, sr := range pr.Stages {
		if sr.Lo != sp.Stages[si].Lo || sr.Hi != sp.Stages[si].Hi {
			t.Errorf("stage %d: range [%d,%d) != plan [%d,%d)", si, sr.Lo, sr.Hi, sp.Stages[si].Lo, sp.Stages[si].Hi)
		}
		last := si == len(pr.Stages)-1
		if last && (sr.XferBits != 0 || sr.XferNS != 0) {
			t.Errorf("last stage has transfer cost %d bits / %g ns", sr.XferBits, sr.XferNS)
		}
		if !last && sr.XferNS <= 0 {
			t.Errorf("stage %d: no transfer cost for %d boundary bits", si, sr.XferBits)
		}
		if sr.MarginalNS > sr.FillNS {
			t.Errorf("stage %d: marginal %g exceeds fill %g", si, sr.MarginalNS, sr.FillNS)
		}
		fill += sr.FillNS + sr.XferNS
		energy += sr.EnergyPJ + sr.XferPJ
		if occ := sr.OccupancyNS(); occ > bottleneck {
			bottleneck = occ
		}
	}
	if math.Abs(pr.FillNS-fill) > 1e-9*fill {
		t.Errorf("FillNS %g, stage sum %g", pr.FillNS, fill)
	}
	if math.Abs(pr.PerSampleEnergyPJ-energy) > 1e-9*energy {
		t.Errorf("PerSampleEnergyPJ %g, stage sum %g", pr.PerSampleEnergyPJ, energy)
	}
	if math.Abs(pr.BottleneckNS-bottleneck) > 1e-12 {
		t.Errorf("BottleneckNS %g, max occupancy %g", pr.BottleneckNS, bottleneck)
	}
	if pr.Batch(1, 1).InfersPerSec() <= 0 {
		t.Error("non-positive steady-state throughput")
	}
	// Per-stage batch pricing sums to more than the whole-pipeline batch
	// only through fills; marginals must never exceed the bottleneck.
	for si := range pr.Stages {
		br := pr.Stages[si].Batch(8)
		if br.MarginalNS > pr.BottleneckNS+1e-12 {
			t.Errorf("stage %d: marginal %g exceeds bottleneck %g", si, br.MarginalNS, pr.BottleneckNS)
		}
	}
}

// An unsharded model is a one-stage pipeline, so stepping it must cost
// what the whole-model batch entry point costs: the run's first store is
// the NewTrace result, with no boundary context built beside it.
func TestOneStageShardRunAllocatesNoMoreThanForwardAPBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net := model.TinyCNN(model.DefaultConfig())
	c := compileNet(t, net, true)
	sp := partitionEven(t, c, Analyze(c), 1)
	in := randInput(14, net.InputShape)

	whole := func() {
		if _, err := ForwardAPBatchHook(c, []*tensor.Float{in}, nil); err != nil {
			t.Fatal(err)
		}
	}
	staged := func() {
		run, err := NewShardRun(c, sp, in)
		if err == nil {
			err = run.Step()
		}
		if err != nil || !run.Done() {
			t.Fatalf("one-stage run: done=%v, %v", run.Done(), err)
		}
	}
	for i := 0; i < 32; i++ {
		whole() // warm the pools, the worker fleet, and every ExecPlan
		staged()
	}
	want, got := testing.AllocsPerRun(100, whole), testing.AllocsPerRun(100, staged)
	t.Logf("ForwardAPBatchHook %.0f allocs, one-stage NewShardRun+Step %.0f", want, got)
	if got > want {
		t.Fatalf("one-stage NewShardRun+Step allocates %.0f times, ForwardAPBatchHook %.0f", got, want)
	}
}
