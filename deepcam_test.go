package rtmap

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// The DeepCAM baseline row of Table II (analyzeDeepCAM).
func TestAnalyzeVGG11Row(t *testing.T) {
	net := model.VGG11(model.Config{ActBits: 4, Sparsity: 0.85, Seed: 1})
	r := analyzeDeepCAM(net, defaultDeepCAM())
	// Table II: DeepCAM runs VGG-11 at well under a microjoule per
	// inference (0.49 µJ) on 24 arrays of 512×1024.
	if uj := r.EnergyPJ / 1e6; uj <= 0 || uj > 5 {
		t.Errorf("VGG-11 energy %.3f µJ implausible vs paper's 0.49", uj)
	}
	if r.Arrays < 10 || r.Arrays > 60 {
		t.Errorf("arrays %d implausible vs paper's 24", r.Arrays)
	}
	if r.LatencyNS <= 0 {
		t.Error("zero latency")
	}
}

func TestScalingCaveat(t *testing.T) {
	// §V-A: "the energy efficiency of deeper networks like ResNet18 does
	// not scale as effectively" and accuracy is more approximation
	// sensitive. Energy per MAC and approximation error must both be
	// worse for ResNet-18 than VGG-11.
	vgg := model.VGG11(model.Config{ActBits: 4, Sparsity: 0.85, Seed: 1})
	res := model.ResNet18(model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	rv := analyzeDeepCAM(vgg, defaultDeepCAM())
	rr := analyzeDeepCAM(res, defaultDeepCAM())
	if rr.ApproxSigma <= rv.ApproxSigma {
		t.Errorf("approximation error must grow with depth: resnet %.3f vs vgg %.3f",
			rr.ApproxSigma, rv.ApproxSigma)
	}
}

func TestForwardHashPerturbsButPreservesScale(t *testing.T) {
	net := model.TinyCNN(model.Config{ActBits: 8, Sparsity: 0.5, Seed: 4})
	rng := rand.New(rand.NewPCG(9, 9))
	var cal []*tensor.Float
	for j := 0; j < 3; j++ {
		c := tensor.NewFloat(net.InputShape)
		for i := range c.Data {
			c.Data[i] = float32(math.Abs(rng.NormFloat64()))
		}
		cal = append(cal, c)
	}
	if err := model.Calibrate(net, cal); err != nil {
		t.Fatal(err)
	}
	in := tensor.NewFloat(net.InputShape)
	for i := range in.Data {
		in.Data[i] = float32(math.Abs(rng.NormFloat64()))
	}
	ref, err := net.ForwardInt(in)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := forwardHash(net, in, defaultDeepCAM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	var refMax, hashMax int32
	for i, v := range ref.Logits().Data {
		if hash.Logits().Data[i] != v {
			same = false
		}
		if a := abs32(v); a > refMax {
			refMax = a
		}
		if a := abs32(hash.Logits().Data[i]); a > hashMax {
			hashMax = a
		}
	}
	if same {
		t.Error("hash approximation left logits bit-exact")
	}
	if refMax > 0 && (hashMax > 4*refMax) {
		t.Errorf("hash logits magnitude %d vs reference %d — noise model unstable", hashMax, refMax)
	}
}

func TestForwardHashSeeded(t *testing.T) {
	net := model.TinyCNN(model.Config{ActBits: 8, Sparsity: 0.5, Seed: 5})
	in := tensor.NewFloat(net.InputShape)
	for i := range in.Data {
		in.Data[i] = float32(i%13) * 0.15
	}
	if err := model.Calibrate(net, []*tensor.Float{in}); err != nil {
		t.Fatal(err)
	}
	a, _ := forwardHash(net, in, defaultDeepCAM(), 7)
	b, _ := forwardHash(net, in, defaultDeepCAM(), 7)
	c, _ := forwardHash(net, in, defaultDeepCAM(), 8)
	if !a.Logits().Equal(b.Logits()) {
		t.Error("same seed must reproduce")
	}
	diff := false
	for i := range a.Logits().Data {
		if a.Logits().Data[i] != c.Logits().Data[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should perturb differently")
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestLongerHashReducesError(t *testing.T) {
	short := defaultDeepCAM()
	short.HashLen = 16
	long := defaultDeepCAM()
	long.HashLen = 256
	net := model.VGG11(model.Config{ActBits: 4, Sparsity: 0.85, Seed: 1})
	rs := analyzeDeepCAM(net, short)
	rl := analyzeDeepCAM(net, long)
	if rl.ApproxSigma >= rs.ApproxSigma {
		t.Error("longer hashes must reduce approximation error")
	}
	if rl.EnergyPJ <= rs.EnergyPJ {
		t.Error("longer hashes must cost more energy")
	}
}
