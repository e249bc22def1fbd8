package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/quant"
	"rtmap/internal/tensor"
	"rtmap/internal/ternary"
)

func randInput(seed uint64, s tensor.Shape) *tensor.Float {
	rng := rand.New(rand.NewPCG(seed, seed^0xf00d))
	in := tensor.NewFloat(s)
	for i := range in.Data {
		in.Data[i] = float32(math.Abs(rng.NormFloat64())) * 0.5
	}
	return in
}

// zooNet builds the named zoo network at the default build point.
func zooNet(tb testing.TB, name string) *model.Network {
	tb.Helper()
	net, err := model.Build(name, model.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

func compileNet(t *testing.T, net *model.Network, keep bool) *core.Compiled {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = keep
	c, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The headline correctness claim of the paper ("retaining software
// accuracy"): AP execution is bit-exact with the integer software
// reference, end to end.
func TestForwardAPExactTinyCNN(t *testing.T) {
	net := model.TinyCNN(model.DefaultConfig())
	c := compileNet(t, net, true)
	for seed := uint64(0); seed < 5; seed++ {
		in := randInput(seed, net.InputShape)
		ref, err := net.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ForwardAP(c, in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Layers {
			if !got.Outputs[i].Equal(ref.Outputs[i]) {
				t.Fatalf("seed %d: layer %d (%s) diverges from software reference",
					seed, i, net.Layers[i].Name)
			}
		}
	}
}

func TestForwardAPExactTinyResNet(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, true)
	in := randInput(42, net.InputShape)
	ref, err := net.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ForwardAP(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Logits().Equal(ref.Logits()) {
		t.Fatal("residual network diverges from software reference")
	}
}

// Randomized single conv layers across strides, pads, kernel shapes and
// channel counts: RunConv must equal the direct integer convolution.
func TestRunConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 100))
	for trial := 0; trial < 12; trial++ {
		cin := 1 + rng.IntN(6)
		cout := 1 + rng.IntN(10)
		k := 1 + rng.IntN(3)
		stride := 1 + rng.IntN(2)
		h := k + 2 + rng.IntN(6)
		sp := 0.3 + 0.5*rng.Float64()

		net := singleConvNet(uint64(trial+1), cin, cout, k, stride, k/2, h, sp)
		c := compileNet(t, net, true)

		in := randInput(uint64(trial+7), net.InputShape)
		tr, err := net.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunConv(c, 0, tr.InputCodes)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tr.Outputs[0]) {
			t.Fatalf("trial %d: conv cin=%d cout=%d k=%d s=%d: AP != reference",
				trial, cin, cout, k, stride)
		}
	}
}

// singleConvNet builds a minimal network with exactly one conv layer.
func singleConvNet(seed uint64, cin, cout, k, stride, pad, h int, sparsity float64) *model.Network {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	net := &model.Network{
		Name:       "single-conv",
		InputShape: tensor.Shape{N: 1, C: cin, H: h, W: h},
		InputQ:     quant.Quantizer{Bits: 4, Step: 0.25},
	}
	net.Layers = append(net.Layers, model.Layer{
		Kind: model.KindConv, Name: "conv", Inputs: []int{model.InputRef},
		W: ternary.Random(rng, cout, cin, k, k, sparsity), WScale: 1, Stride: stride, Pad: pad,
	})
	return mustValidate(net)
}

// mustValidate returns a hand-built network once Validate accepts it: the
// oracle and the compiler take their network as valid.
func mustValidate(net *model.Network) *model.Network {
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

func TestAnalyzeProducesPositiveCosts(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, false)
	rep := Analyze(c)
	if rep.Total.TotalPJ() <= 0 {
		t.Fatal("zero total energy")
	}
	if rep.TotalLatencyNS <= 0 {
		t.Fatal("zero total latency")
	}
	for _, lr := range rep.Layers {
		if lr.Plan.Class == core.ClassConv {
			// 1×1 convs and FC layers may compile to pure accumulation
			// (every row is a single signed term), so DFG energy alone
			// can legitimately be zero.
			if lr.Energy.DFGPJ+lr.Energy.AccumPJ <= 0 || lr.LatencyNS <= 0 {
				t.Errorf("layer %s: empty conv cost %+v", lr.Plan.Name, lr.Energy)
			}
		}
	}
	// Components sum to total.
	var sum float64
	for _, lr := range rep.Layers {
		sum += lr.Energy.TotalPJ()
	}
	if math.Abs(sum-rep.Total.TotalPJ()) > 1e-6*sum {
		t.Errorf("component sum %g != total %g", sum, rep.Total.TotalPJ())
	}
}

func TestEightBitCostsMore(t *testing.T) {
	mk := func(bits int) *Report {
		net := model.TinyCNN(model.Config{ActBits: bits, Sparsity: 0.5, Seed: 3})
		return Analyze(compileNet(t, net, false))
	}
	r4, r8 := mk(4), mk(8)
	if r8.Total.TotalPJ() <= r4.Total.TotalPJ() {
		t.Errorf("8-bit energy %g should exceed 4-bit %g", r8.Total.TotalPJ(), r4.Total.TotalPJ())
	}
	if r8.TotalLatencyNS <= r4.TotalLatencyNS {
		t.Errorf("8-bit latency %g should exceed 4-bit %g", r8.TotalLatencyNS, r4.TotalLatencyNS)
	}
}

func TestEnduranceReport(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, false)
	rep := Analyze(c)
	e := Endurance(c, rep)
	if e.LifetimeYears <= 0 {
		t.Fatalf("non-positive lifetime: %+v", e)
	}
	if e.MeanRewriteIntervalNS <= 0 {
		t.Fatalf("non-positive rewrite interval: %+v", e)
	}
}

// A mid-size sequential network (multiple row groups, strips and planes)
// exercises the full mapping machinery functionally.
func TestForwardAPExactMediumNet(t *testing.T) {
	if testing.Short() {
		t.Skip("medium functional simulation")
	}
	net := mediumNet()
	c := compileNet(t, net, true)
	in := randInput(77, net.InputShape)
	ref, err := net.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ForwardAP(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Layers {
		if !got.Outputs[i].Equal(ref.Outputs[i]) {
			t.Fatalf("layer %d (%s) diverges", i, net.Layers[i].Name)
		}
	}
	// This configuration must actually exercise multi-row-group and
	// multi-strip mapping, or the test is vacuous.
	sawMultiRG, sawMultiStrip := false, false
	for _, p := range c.Layers {
		if p.RowGroups > 1 {
			sawMultiRG = true
		}
		if p.Strips > 1 {
			sawMultiStrip = true
		}
	}
	if !sawMultiRG {
		t.Error("medium net never used multiple row groups")
	}
	if !sawMultiStrip {
		t.Error("medium net never used multiple strips")
	}
}

// mediumNet: 24×24 input (3 row groups), 40 input channels in the second
// conv (3 strips at 4-bit with 1 plane), pooling and a classifier.
func mediumNet() *model.Network {
	rng := rand.New(rand.NewPCG(21, 22))
	net := &model.Network{
		Name:       "medium",
		InputShape: tensor.Shape{N: 1, C: 3, H: 24, W: 24},
		InputQ:     quant.Quantizer{Bits: 4, Step: 0.25},
	}
	add := func(l model.Layer) int {
		net.Layers = append(net.Layers, l)
		return len(net.Layers) - 1
	}
	c1 := add(model.Layer{Kind: model.KindConv, Name: "c1", Inputs: []int{model.InputRef},
		W: ternary.Random(rng, 40, 3, 3, 3, 0.6), WScale: 1, Stride: 1, Pad: 1})
	q1 := add(model.Layer{Kind: model.KindActQuant, Name: "q1", Inputs: []int{c1},
		Q: quant.Quantizer{Bits: 4, Step: 2}, ReLU: true})
	c2 := add(model.Layer{Kind: model.KindConv, Name: "c2", Inputs: []int{q1},
		W: ternary.Random(rng, 24, 40, 3, 3, 0.6), WScale: 1, Stride: 2, Pad: 1})
	q2 := add(model.Layer{Kind: model.KindActQuant, Name: "q2", Inputs: []int{c2},
		Q: quant.Quantizer{Bits: 4, Step: 8}, ReLU: true})
	g := add(model.Layer{Kind: model.KindGlobalAvgPool, Name: "gap", Inputs: []int{q2}})
	f := add(model.Layer{Kind: model.KindFlatten, Name: "flat", Inputs: []int{g}})
	add(model.Layer{Kind: model.KindLinear, Name: "fc", Inputs: []int{f},
		W: ternary.Random(rng, 5, 24, 1, 1, 0.5), WScale: 1, Stride: 1})
	return mustValidate(net)
}
