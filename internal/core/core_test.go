package core

import (
	"math/rand/v2"
	"testing"

	"rtmap/internal/model"
	"rtmap/internal/quant"
	"rtmap/internal/tensor"
	"rtmap/internal/ternary"
)

func compileTiny(t *testing.T, cse, keep bool) *Compiled {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CSE = cse
	cfg.KeepPrograms = keep
	c, err := Compile(model.TinyCNN(model.DefaultConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileTinyCNN(t *testing.T) {
	c := compileTiny(t, true, false)
	if c.PoolArrays != 1 {
		t.Errorf("pool arrays %d, want 1 (8x8 inputs fit one array)", c.PoolArrays)
	}
	if c.TotalAddSub() <= 0 {
		t.Error("no DFG ops counted")
	}
	for _, p := range c.Layers {
		if p.Class != ClassConv {
			continue
		}
		if p.Tiles < 1 || p.TileSize < 1 || p.Strips < 1 || p.Replicas < 1 {
			t.Errorf("layer %s: degenerate plan %+v", p.Name, p)
		}
		if p.CG.AccumOps == 0 {
			t.Errorf("layer %s: no accumulate ops", p.Name)
		}
		if p.AccWidth < p.ActBits {
			t.Errorf("layer %s: accumulator width %d below input width %d", p.Name, p.AccWidth, p.ActBits)
		}
	}
}

func TestCSECutsOps(t *testing.T) {
	plain := compileTiny(t, false, false)
	opt := compileTiny(t, true, false)
	if opt.TotalAddSub() > plain.TotalAddSub() {
		t.Errorf("CSE increased ops: %d → %d", plain.TotalAddSub(), opt.TotalAddSub())
	}
}

func TestCompileResNet18Mapping(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	cfg := DefaultConfig()
	net := model.ResNet18(model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	c, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table II: 49 arrays of 256×256 for ResNet-18/ImageNet.
	if c.PoolArrays != 49 {
		t.Errorf("pool arrays %d, want 49", c.PoolArrays)
	}
	convs := c.ConvPlans()
	if len(convs) != 21 {
		t.Fatalf("conv plans %d, want 21 (20 convs + fc)", len(convs))
	}
	// Stem: P = 112² = 12544 → 49 row groups, single strip (3 channels).
	stem := convs[0]
	if stem.RowGroups != 49 || stem.Strips != 1 {
		t.Errorf("stem mapping: %d row groups / %d strips, want 49/1", stem.RowGroups, stem.Strips)
	}
	// Deep 512-channel convs: single row group, several strips.
	deep := convs[len(convs)-2] // last block conv before fc
	if deep.RowGroups != 1 {
		t.Errorf("deep conv row groups %d, want 1", deep.RowGroups)
	}
	if deep.Strips < 2 {
		t.Errorf("deep conv strips %d, want >= 2 (512 channels)", deep.Strips)
	}
	if c.TotalAddSub() < 100_000 {
		t.Errorf("ResNet-18 total adds %d implausibly low", c.TotalAddSub())
	}
}

// A 7×7 stem on 3 channels is one strip whose temp pool already holds
// every free column, so doubling the temp budget cannot relieve it; at
// low sparsity CSE defines more values than the pool holds live, and the
// retry must cap the definitions instead.
func TestStemCompilesAtLowSparsity(t *testing.T) {
	for _, sparsity := range []float64{0, 0.5} {
		rng := rand.New(rand.NewPCG(1, 7))
		net := &model.Network{
			Name:       "stem",
			InputShape: tensor.Shape{N: 1, C: 3, H: 16, W: 16},
			InputQ:     quant.Quantizer{Bits: 4, Step: 1},
			Layers: []model.Layer{{
				Kind: model.KindConv, Name: "conv1", Inputs: []int{model.InputRef},
				W: ternary.Random(rng, 64, 3, 7, 7, sparsity), WScale: 1, Stride: 2, Pad: 3,
			}},
		}
		cfg := DefaultConfig()
		cfg.Cache = nil
		c, err := Compile(net, cfg)
		if err != nil {
			t.Errorf("sparsity %.1f: %v", sparsity, err)
			continue
		}
		if c.TotalAddSub() == 0 {
			t.Errorf("sparsity %.1f: no DFG ops", sparsity)
		}
	}
}

func TestVGGArraysMatchTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	for _, build := range []func(model.Config) *model.Network{model.VGG9, model.VGG11} {
		net := build(model.Config{ActBits: 4, Sparsity: 0.85, Seed: 2})
		c, err := Compile(net, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Table II: 4 arrays for both VGG models on CIFAR10 (32² inputs).
		if c.PoolArrays != 4 {
			t.Errorf("%s pool arrays %d, want 4", net.Name, c.PoolArrays)
		}
	}
}

func TestActivationInfoPropagation(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c, err := Compile(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Layers {
		if p.Class == ClassConv && p.ActBits <= 0 {
			t.Errorf("layer %s: activation bits %d", p.Name, p.ActBits)
		}
	}
	// The residual add operates on the signed shared grid.
	for i, p := range c.Layers {
		if p.Kind == model.KindAdd {
			if c.Net.Layers[i].Kind != model.KindAdd {
				t.Fatal("plan/layer misalignment")
			}
			if p.ActUnsigned {
				t.Errorf("residual add %s should see signed operands", p.Name)
			}
		}
	}
}

func TestNaiveOpsExceedCSEOps(t *testing.T) {
	c := compileTiny(t, true, false)
	if c.TotalNaive() < c.TotalAddSub() {
		t.Errorf("naive accumulate count %d below optimized %d", c.TotalNaive(), c.TotalAddSub())
	}
}

func TestKeepProgramsPopulatesStrips(t *testing.T) {
	c := compileTiny(t, true, true)
	found := false
	for _, p := range c.Layers {
		if p.Class != ClassConv {
			continue
		}
		if len(p.StripPlans) != p.Strips {
			t.Errorf("layer %s: %d strip plans, want %d", p.Name, len(p.StripPlans), p.Strips)
		}
		for _, sp := range p.StripPlans {
			if len(sp.Programs) != p.Tiles {
				t.Errorf("layer %s: %d programs, want %d", p.Name, len(sp.Programs), p.Tiles)
			}
			for _, tp := range sp.Programs {
				if err := tp.Prog.Validate(); err != nil {
					t.Errorf("layer %s: invalid program: %v", p.Name, err)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no programs kept")
	}
}
