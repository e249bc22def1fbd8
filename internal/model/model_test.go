package model

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"rtmap/internal/quant"
	"rtmap/internal/tensor"
)

func randInput(seed uint64, s tensor.Shape) *tensor.Float {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	in := tensor.NewFloat(s)
	for i := range in.Data {
		in.Data[i] = float32(math.Abs(rng.NormFloat64())) * 0.5
	}
	return in
}

func TestBuildersValidate(t *testing.T) {
	cfg := DefaultConfig()
	for _, n := range []*Network{VGG9(cfg), VGG11(cfg), ResNet18(cfg), TinyCNN(cfg), TinyResNet(cfg)} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestWeightLayerCounts(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		net        *Network
		weightLyrs int // "VGG-N" counts conv+FC layers
		convOnly   int
	}{
		{VGG9(cfg), 9, 6},
		{VGG11(cfg), 11, 8},
		{ResNet18(cfg), 21, 20}, // 20 convs (Fig. 4 x-axis) + final FC
	}
	for _, c := range cases {
		all := c.net.ConvLayers()
		convs := 0
		for _, i := range all {
			if c.net.Layers[i].Kind == KindConv {
				convs++
			}
		}
		if len(all) != c.weightLyrs {
			t.Errorf("%s: %d weight layers, want %d", c.net.Name, len(all), c.weightLyrs)
		}
		if convs != c.convOnly {
			t.Errorf("%s: %d conv layers, want %d", c.net.Name, convs, c.convOnly)
		}
	}
}

func TestResNet18Shapes(t *testing.T) {
	n := ResNet18(DefaultConfig())
	shapes := n.OutShapes(1)
	// Stem: 64×112×112 after conv1, 64×56×56 after maxpool.
	conv1 := n.LayerByName("conv1")
	if s := shapes[conv1]; s.C != 64 || s.H != 112 || s.W != 112 {
		t.Errorf("conv1 out %v, want 64x112x112", s)
	}
	mp := n.LayerByName("maxpool")
	if s := shapes[mp]; s.H != 56 {
		t.Errorf("maxpool out %v, want H=56", s)
	}
	// Final stage block output 512×7×7.
	q := n.LayerByName("layer4.1.qout")
	if s := shapes[q]; s.C != 512 || s.H != 7 || s.W != 7 {
		t.Errorf("layer4 out %v, want 512x7x7", s)
	}
	// Classifier 1000-way.
	if s := shapes[n.Output()]; s.C != 1000 || s.H != 1 || s.W != 1 {
		t.Errorf("logits %v, want 1000x1x1", s)
	}
}

func TestVGGShapes(t *testing.T) {
	n := VGG9(DefaultConfig())
	shapes := n.OutShapes(1)
	if s := shapes[n.LayerByName("flatten")]; s.C != 4096 {
		t.Errorf("VGG9 flatten C=%d, want 4096 (256*4*4)", s.C)
	}
	if s := shapes[n.Output()]; s.C != 10 {
		t.Errorf("VGG9 classes %d, want 10", s.C)
	}
	n11 := VGG11(DefaultConfig())
	shapes11 := n11.OutShapes(1)
	if s := shapes11[n11.LayerByName("flatten")]; s.C != 512 {
		t.Errorf("VGG11 flatten C=%d, want 512 (512*1*1)", s.C)
	}
}

func TestSparsityNearTarget(t *testing.T) {
	for _, sp := range []float64{0.8, 0.85, 0.9} {
		cfg := Config{ActBits: 4, Sparsity: sp, Seed: 3}
		n := VGG9(cfg)
		if got := n.WeightSparsity(); math.Abs(got-sp) > 0.02 {
			t.Errorf("sparsity %.3f, want ~%.2f", got, sp)
		}
	}
}

func TestForwardIntTinyCNN(t *testing.T) {
	n := TinyCNN(DefaultConfig())
	in := randInput(7, n.InputShape)
	tr, err := n.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	logits := tr.Logits()
	if logits.Shape.C != 4 {
		t.Fatalf("logit shape %v", logits.Shape)
	}
	// Codes at quant sites stay within their grids.
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.Kind != KindActQuant {
			continue
		}
		for _, c := range tr.Outputs[i].Data {
			if c < l.Q.Qn() || c > l.Q.Qp() {
				t.Fatalf("layer %s code %d outside [%d,%d]", l.Name, c, l.Q.Qn(), l.Q.Qp())
			}
		}
	}
}

func TestForwardIntTinyResNetResidual(t *testing.T) {
	n := TinyResNet(DefaultConfig())
	in := randInput(11, n.InputShape)
	if _, err := n.ForwardInt(in); err != nil {
		t.Fatalf("residual int forward: %v", err)
	}
}

func TestForwardDeterminism(t *testing.T) {
	n := TinyCNN(DefaultConfig())
	in := randInput(13, n.InputShape)
	a, err := n.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Logits().Equal(b.Logits()) {
		t.Error("ForwardInt must be deterministic")
	}
}

func TestCalibrateTinyAndAgreement(t *testing.T) {
	n := TinyCNN(Config{ActBits: 8, Sparsity: 0.5, Seed: 5})
	var cal []*tensor.Float
	for s := uint64(0); s < 4; s++ {
		cal = append(cal, randInput(100+s, n.InputShape))
	}
	if err := Calibrate(n, cal); err != nil {
		t.Fatal(err)
	}
	// After calibration, the int path should agree with the FP teacher on
	// argmax for most inputs (8-bit activations).
	agree, total := 0, 20
	for s := 0; s < total; s++ {
		in := randInput(uint64(200+s), n.InputShape)
		fl, err := n.ForwardFloat(in, false)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := n.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		fArg := fl[n.Output()].ArgmaxFloat()[0]
		iArg := tr.Logits().ArgmaxInt()[0]
		if fArg == iArg {
			agree++
		}
	}
	if agree < total*7/10 {
		t.Errorf("8-bit int path agrees on %d/%d argmax; want >= 70%%", agree, total)
	}
}

func TestCalibrateSharedGrids(t *testing.T) {
	n := TinyResNet(Config{ActBits: 6, Sparsity: 0.5, Seed: 9})
	cal := []*tensor.Float{randInput(31, n.InputShape), randInput(32, n.InputShape)}
	if err := Calibrate(n, cal); err != nil {
		t.Fatal(err)
	}
	// qmain and qskip of each block must share a step.
	for _, blk := range []string{"block1", "block2"} {
		m := n.Layers[n.LayerByName(blk+".qmain")].Q.Step
		s := n.Layers[n.LayerByName(blk+".qskip")].Q.Step
		if m != s {
			t.Errorf("%s: qmain step %g != qskip step %g", blk, m, s)
		}
	}
	if _, err := n.ForwardInt(randInput(33, n.InputShape)); err != nil {
		t.Fatalf("int forward after calibration: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := TinyResNet(DefaultConfig())
	cal := []*tensor.Float{randInput(41, n.InputShape)}
	if err := Calibrate(n, cal); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(42, n.InputShape)
	a, err := n.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Logits().Equal(b.Logits()) {
		t.Error("JSON round-trip changed network behaviour")
	}
}

func TestOutShapesAddAndFlatten(t *testing.T) {
	n := TinyResNet(DefaultConfig())
	shapes := n.OutShapes(2)
	for i, l := range n.Layers {
		if l.Kind == KindAdd {
			a := l.Inputs[0]
			if shapes[i] != shapes[a] {
				t.Errorf("add shape %v != input shape %v", shapes[i], shapes[a])
			}
		}
		if shapes[i].N != 2 {
			t.Errorf("layer %d batch %d, want 2", i, shapes[i].N)
		}
	}
}

func TestValidateCatchesBadGraph(t *testing.T) {
	n := TinyCNN(DefaultConfig())
	n.Layers[2].Inputs = []int{5} // forward reference
	if err := n.Validate(); err == nil {
		t.Error("Validate must reject forward references")
	}
}

// The act-quant loop hoists the mode and the clamps out of the element
// loop; RequantCode stays the definition the peripheral model quotes. Hold
// the loop to it for every 16-bit code, both modes, unsigned and signed
// grids, and two scales — one with exact .5 ties, one without.
func TestRequantLoopMatchesRequantCode(t *testing.T) {
	src := make([]int32, 1<<16)
	for i := range src {
		src[i] = int32(i) - 1<<15
	}
	dst := make([]int32, len(src))
	for _, q := range []quant.Quantizer{{Bits: 4, Step: 1}, {Bits: 8, Step: 1, Signed: true}} {
		for _, relu := range []bool{true, false} {
			for _, scale := range []float64{0.125, 0.0123} {
				requantInto(dst, src, scale, q, relu)
				for k, c := range src {
					if want := RequantCode(c, scale, q, relu); dst[k] != want {
						t.Fatalf("%v relu=%v scale=%g: code %d requantizes to %d, RequantCode says %d", q, relu, scale, c, dst[k], want)
					}
				}
			}
		}
	}
}

// A fusing executor sees an act layer only as Requant.Item's scale and
// clamps, and computes clamp(RoundToEven(c·scale), lo, hi) itself: that
// must be RequantCode for every mode and grid, ReLU over a signed grid
// (which clamps at 0, not at the grid's floor) included.
func TestRequantItemMatchesRequantCode(t *testing.T) {
	for _, q := range []quant.Quantizer{{Bits: 4, Step: 1}, {Bits: 8, Step: 1, Signed: true}, {Bits: 2, Step: 1, Signed: true}} {
		for _, relu := range []bool{true, false} {
			r := &Requant{scales: []float64{0.5, 0.0123}, q: q, relu: relu}
			for j, scale := range r.scales {
				s, lo, hi := r.Item(j)
				if s != scale {
					t.Fatalf("%v relu=%v: item %d scale %g, want %g", q, relu, j, s, scale)
				}
				for c := int32(-1 << 12); c <= 1<<12; c++ {
					got := min(max(int32(math.RoundToEven(float64(c)*s)), lo), hi)
					if want := RequantCode(c, scale, q, relu); got != want {
						t.Fatalf("%v relu=%v scale %g: code %d clamps to %d in [%d, %d], RequantCode says %d", q, relu, scale, c, got, lo, hi, want)
					}
				}
			}
		}
	}
}
