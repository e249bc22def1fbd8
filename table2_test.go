package rtmap

import (
	"math"
	"strings"
	"testing"

	"rtmap/internal/model"
	"rtmap/internal/workload"
)

// TestTable2SmallModels drives the complete Table II pipeline — RTM-AP
// rows at 4/8 bits, op counts, the crossbar and DeepCAM baselines, and
// the top-1 agreement measurements — on a small model, so the artifact
// path is exercised even under -short.
func TestTable2SmallModels(t *testing.T) {
	opt := DefaultTable2Options()
	opt.specs = []netSpec{{
		key: "tinycnn", display: "TinyCNN/8x8",
		build:      model.TinyCNN,
		sparsities: []float64{0.5},
		accBuild:   model.TinyCNN,
		deepCAM:    true,
	}}
	opt.AccuracySamples = 4
	opt.CalibSamples = 2
	opt.Cache = NewCompileCache()
	res, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (RTM-AP, crossbar, DeepCAM)", len(res.Rows))
	}
	rtm := res.Rows[0]
	if !(rtm.Energy4UJ > 0) || !(rtm.Latency4MS > 0) || rtm.Arrays < 1 {
		t.Errorf("degenerate RTM-AP row: %+v", rtm)
	}
	if !(rtm.Energy8UJ > rtm.Energy4UJ) {
		t.Errorf("8-bit energy %.3f should exceed 4-bit %.3f", rtm.Energy8UJ, rtm.Energy4UJ)
	}
	if rtm.AddsCSEK > rtm.AddsUnrollK {
		t.Errorf("CSE adds %.1fK exceed unroll %.1fK", rtm.AddsCSEK, rtm.AddsUnrollK)
	}
	if math.IsNaN(rtm.Acc4) || rtm.AccFP != 100 {
		t.Errorf("accuracy columns not measured: %+v", rtm)
	}
	if txt := res.Text(); !strings.Contains(txt, "TinyCNN/8x8") {
		t.Error("rendered table missing the network row")
	}
	if tsv := res.TSV(); len(strings.Split(strings.TrimSpace(tsv), "\n")) != 4 {
		t.Errorf("TSV should have header + 3 rows:\n%s", tsv)
	}
}

// A requested network with no Table II row is an error that names each
// such request and the networks there are, before anything is compiled:
// a typo in -net must not read as an empty, successful run.
func TestTable2UnknownNetwork(t *testing.T) {
	_, err := Table2(Table2Options{Networks: []string{"vgg9", "nosuch", "vgg10"}})
	if err == nil {
		t.Fatal("Table2 accepted unknown networks")
	}
	want := `rtmap: Table II has no network "nosuch", "vgg10" (networks: resnet18|vgg9|vgg11)`
	if err.Error() != want {
		t.Fatalf("Table2 error %q, want %q", err, want)
	}
}

// TestFigure4SmallModel exercises both Fig. 4 panels on a small model.
func TestFigure4SmallModel(t *testing.T) {
	opt := DefaultFigure4Options()
	opt.BuildNet = model.TinyCNN
	opt.Cache = NewCompileCache()
	res, err := Figure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	net := model.TinyCNN(model.Config{ActBits: opt.ActBits, Sparsity: opt.Sparsity, Seed: opt.Seed})
	wantConvs := 0
	for _, l := range net.Layers {
		if l.Kind == model.KindConv {
			wantConvs++
		}
	}
	if len(res.Energy.Layers) != wantConvs || len(res.Latency.Layers) != wantConvs {
		t.Fatalf("panel layers %d/%d, want %d", len(res.Energy.Layers), len(res.Latency.Layers), wantConvs)
	}
	for i := range res.Energy.Layers {
		for _, cfgVals := range res.Energy.Values[i] {
			for _, v := range cfgVals {
				if math.IsNaN(v) || v < 0 {
					t.Fatalf("layer %d: bad energy component %v", i, v)
				}
			}
		}
		for _, v := range res.Latency.Values[i] {
			if !(v > 0) {
				t.Fatalf("layer %d: non-positive latency %v", i, v)
			}
		}
	}
}

// TestVerifyCachedReuse proves functional correctness of cached
// artifacts: a second compile served entirely from the cache still
// executes bit-identically to the software reference.
func TestVerifyCachedReuse(t *testing.T) {
	net := BuildTinyCNN(DefaultModelConfig())
	cache := NewCompileCache()
	cfg := DefaultCompileConfig()
	cfg.Cache = cache
	inputs := workload.Inputs(net.InputShape, 2, 19)

	if err := Verify(net, cfg, inputs); err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	cold := cache.Stats()
	if cold.Misses == 0 || cold.Hits != 0 {
		t.Fatalf("cold verify stats %+v", cold)
	}
	if err := Verify(net, cfg, inputs); err != nil {
		t.Fatalf("cached verify: %v", err)
	}
	warm := cache.Stats()
	if warm.Hits != cold.Misses || warm.Misses != cold.Misses {
		t.Fatalf("warm verify stats %+v, want %d hits and no new misses", warm, cold.Misses)
	}
}
