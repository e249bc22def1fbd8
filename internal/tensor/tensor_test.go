package tensor

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randInt(rng *rand.Rand, s Shape, lo, hi int32) *Int {
	t := NewInt(s)
	for i := range t.Data {
		t.Data[i] = lo + rng.Int32N(hi-lo+1)
	}
	return t
}

func randTernary(rng *rand.Rand, n int) []int8 {
	w := make([]int8, n)
	for i := range w {
		w[i] = int8(rng.IntN(3) - 1)
	}
	return w
}

func TestShapeIndexRoundTrip(t *testing.T) {
	s := Shape{N: 2, C: 3, H: 4, W: 5}
	seen := make(map[int]bool)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					i := s.Index(n, c, h, w)
					if i < 0 || i >= s.Elems() {
						t.Fatalf("index out of range: %d", i)
					}
					if seen[i] {
						t.Fatalf("duplicate index %d", i)
					}
					seen[i] = true
				}
			}
		}
	}
	if len(seen) != s.Elems() {
		t.Fatalf("expected %d unique indices, got %d", s.Elems(), len(seen))
	}
}

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{224, 7, 2, 3, 112},
		{56, 3, 2, 1, 28},
		{8, 1, 1, 0, 8},
		{5, 3, 1, 0, 3},
	}
	for _, c := range cases {
		if got := ConvOutDim(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutDim(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// convRef is the per-pixel direct convolution the row-streaming kernel is
// held to: each output sums the inputs under its nonzero taps in
// (ci, kh, kw) order, testing every tap against the plane's bounds.
func convRef[T int32 | float32](dst, src []T, w []int8, os, is Shape, spec ConvSpec) {
	for n := 0; n < is.N; n++ {
		for co := 0; co < spec.Cout; co++ {
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					var acc T
					for ci := 0; ci < spec.Cin; ci++ {
						wBase := ((co*spec.Cin + ci) * spec.Fh) * spec.Fw
						for kh := 0; kh < spec.Fh; kh++ {
							ih := oh*spec.Stride + kh - spec.Pad
							if ih < 0 || ih >= is.H {
								continue
							}
							for kw := 0; kw < spec.Fw; kw++ {
								iw := ow*spec.Stride + kw - spec.Pad
								if iw < 0 || iw >= is.W {
									continue
								}
								x := src[is.Index(n, ci, ih, iw)]
								if wv := w[wBase+kh*spec.Fw+kw]; wv > 0 {
									acc += x
								} else if wv < 0 {
									acc -= x
								}
							}
						}
					}
					dst[os.Index(n, co, oh, ow)] = acc
				}
			}
		}
	}
}

// convInt is convRef on an integer tensor.
func convInt(in *Int, w []int8, spec ConvSpec) *Int {
	out := NewInt(spec.OutShape(in.Shape))
	convRef(out.Data, in.Data, w, out.Shape, in.Shape, spec)
	return out
}

func TestConvIntKnownValues(t *testing.T) {
	// 1x1x3x3 input, single 2x2 filter of all +1, stride 1, no pad.
	in := NewInt(Shape{1, 1, 3, 3})
	for i := range in.Data {
		in.Data[i] = int32(i + 1) // 1..9
	}
	w := []int8{1, 1, 1, 1}
	spec := ConvSpec{Cin: 1, Cout: 1, Fh: 2, Fw: 2, Stride: 1, Pad: 0}
	out := ConvIntTernarySparse(in, w, spec)
	want := []int32{1 + 2 + 4 + 5, 2 + 3 + 5 + 6, 4 + 5 + 7 + 8, 5 + 6 + 8 + 9}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("out[%d] = %d, want %d", i, out.Data[i], v)
		}
	}
}

func TestConvIntSubtraction(t *testing.T) {
	in := NewInt(Shape{1, 1, 2, 2})
	copy(in.Data, []int32{10, 20, 30, 40})
	w := []int8{1, -1, -1, 1} // 10-20-30+40 = 0
	spec := ConvSpec{Cin: 1, Cout: 1, Fh: 2, Fw: 2, Stride: 1}
	out := ConvIntTernarySparse(in, w, spec)
	if out.Data[0] != 0 {
		t.Errorf("got %d, want 0", out.Data[0])
	}
}

func TestConvIntPadding(t *testing.T) {
	in := NewInt(Shape{1, 1, 1, 1})
	in.Data[0] = 7
	w := []int8{1, 1, 1, 1, 1, 1, 1, 1, 1}
	spec := ConvSpec{Cin: 1, Cout: 1, Fh: 3, Fw: 3, Stride: 1, Pad: 1}
	out := ConvIntTernarySparse(in, w, spec)
	if out.Shape.H != 1 || out.Shape.W != 1 {
		t.Fatalf("unexpected out shape %v", out.Shape)
	}
	if out.Data[0] != 7 {
		t.Errorf("padded conv = %d, want 7 (only center tap sees data)", out.Data[0])
	}
}

// A weight slice longer or shorter than the spec's filters panics, naming
// the spec, in both wrappers.
func TestConvWeightLengthPanics(t *testing.T) {
	spec := ConvSpec{Cin: 2, Cout: 3, Fh: 3, Fw: 3, Stride: 1, Pad: 1}
	in, inF := NewInt(Shape{1, 2, 4, 4}), NewFloat(Shape{1, 2, 4, 4})
	full := 3 * 2 * 3 * 3
	for _, nw := range []int{full - 1, full + 1} {
		w := make([]int8, nw)
		for name, conv := range map[string]func(){
			"int":   func() { ConvIntTernarySparse(in, w, spec) },
			"float": func() { ConvFloatTernary(inF, w, 0.5, spec) },
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				conv()
				return "no panic"
			}()
			want := fmt.Sprintf("tensor: weight length %d does not match spec %+v", nw, spec)
			if msg != want {
				t.Errorf("%s, %d weights: panic %q, want %q", name, nw, msg, want)
			}
		}
	}
}

// The row-streaming kernel against the per-pixel reference on random
// specs — strides 1–3, pads 0–2, kernels 1–4, planes 1–9, N 1–2 — over
// both signs: the integer wrapper bit for bit, the float wrapper under ==
// on non-integral inputs and a random α (both sum in (ci, kh, kw) order
// and scale once). The generator must reach pads at least the kernel's
// edge, taps that reach no output (their rows or columns lie wholly in
// the padding), 1×1 planes, N = 2 and an all-zero filter.
func TestConvImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	seen := map[string]bool{}
	trials := 0
	for trials < 1500 {
		spec := ConvSpec{
			Cin: 1 + rng.IntN(3), Cout: 1 + rng.IntN(3),
			Fh: 1 + rng.IntN(4), Fw: 1 + rng.IntN(4),
			Stride: 1 + rng.IntN(3), Pad: rng.IntN(3),
		}
		shape := Shape{1 + rng.IntN(2), spec.Cin, 1 + rng.IntN(9), 1 + rng.IntN(9)}
		if shape.H+2*spec.Pad < spec.Fh || shape.W+2*spec.Pad < spec.Fw {
			continue // the filter does not fit even the padded plane
		}
		trials++
		w := randTernary(rng, spec.Cout*spec.Cin*spec.Fh*spec.Fw)
		if rng.IntN(20) == 0 {
			clear(w)
			seen["all-zero filter"] = true
		}
		in := randInt(rng, shape, -50, 50)
		if got, want := ConvIntTernarySparse(in, w, spec), convInt(in, w, spec); !got.Equal(want) {
			t.Fatalf("%v %+v: int kernel differs from the per-pixel reference", shape, spec)
		}
		inF := NewFloat(shape)
		for i := range inF.Data {
			inF.Data[i] = rng.Float32()*2 - 1
		}
		alpha := 0.01 + rng.Float32()
		got := ConvFloatTernary(inF, w, alpha, spec)
		want := make([]float32, got.Shape.Elems())
		convRef(want, inF.Data, w, got.Shape, shape, spec)
		for i, v := range want {
			if got.Data[i] != v*alpha {
				t.Fatalf("%v %+v: float out[%d] = %g, want %g", shape, spec, i, got.Data[i], v*alpha)
			}
		}
		os := got.Shape
		seen["stride 3"] = seen["stride 3"] || spec.Stride == 3
		seen["pad >= kernel"] = seen["pad >= kernel"] || spec.Pad >= spec.Fh || spec.Pad >= spec.Fw
		seen["tap reaching no output"] = seen["tap reaching no output"] ||
			tapMisses(spec.Fh, shape.H, os.H, spec) || tapMisses(spec.Fw, shape.W, os.W, spec)
		seen["1x1 plane"] = seen["1x1 plane"] || shape.H == 1 && shape.W == 1
		seen["N=2"] = seen["N=2"] || shape.N == 2
	}
	for _, name := range []string{"all-zero filter", "stride 3", "pad >= kernel", "tap reaching no output", "1x1 plane", "N=2"} {
		if !seen[name] {
			t.Fatalf("generator regressed: no %s case in %d trials", name, trials)
		}
	}
}

// tapMisses reports whether some tap k < f along an axis of n inputs and
// nOut outputs reads only padding: no output o has 0 ≤ o·S + k − P < n.
func tapMisses(f, n, nOut int, spec ConvSpec) bool {
	for k := range f {
		hit := false
		for o := range nOut {
			if i := o*spec.Stride + k - spec.Pad; i >= 0 && i < n {
				hit = true
			}
		}
		if !hit {
			return true
		}
	}
	return false
}

// Property: the float kernel with α = 1 on integral data equals the
// integer reference.
func TestConvFloatMatchesIntOnTernary(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		spec := ConvSpec{
			Cin: 1 + rng.IntN(3), Cout: 1 + rng.IntN(3),
			Fh: 1 + rng.IntN(3), Fw: 1 + rng.IntN(3), Stride: 1,
		}
		in := randInt(rng, Shape{1, spec.Cin, spec.Fh + 3, spec.Fw + 3}, 0, 15)
		w := randTernary(rng, spec.Cout*spec.Cin*spec.Fh*spec.Fw)
		fin := NewFloat(in.Shape)
		for i, v := range in.Data {
			fin.Data[i] = float32(v)
		}
		got := ConvFloatTernary(fin, w, 1, spec)
		want := convInt(in, w, spec)
		for i := range want.Data {
			if int32(got.Data[i]) != want.Data[i] {
				t.Fatalf("trial %d: mismatch at %d: %v vs %d", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMaxPoolInt(t *testing.T) {
	in := NewInt(Shape{1, 1, 4, 4})
	for i := range in.Data {
		in.Data[i] = int32(i)
	}
	out := MaxPoolInt(in, PoolSpec{K: 2, Stride: 2})
	want := []int32{5, 7, 13, 15}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("pool[%d] = %d, want %d", i, out.Data[i], v)
		}
	}
}

func TestMaxPoolResNetStem(t *testing.T) {
	in := randInt(rand.New(rand.NewPCG(9, 9)), Shape{1, 2, 8, 8}, -5, 20)
	out := MaxPoolInt(in, PoolSpec{K: 3, Stride: 2, Pad: 1})
	if out.Shape.H != 4 || out.Shape.W != 4 {
		t.Fatalf("shape %v, want 1x2x4x4", out.Shape)
	}
	// Spot-check (0,0): window covers in[-1..1][-1..1] → max of in[0..1][0..1].
	want := in.At(0, 0, 0, 0)
	for _, v := range []int32{in.At(0, 0, 0, 1), in.At(0, 0, 1, 0), in.At(0, 0, 1, 1)} {
		if v > want {
			want = v
		}
	}
	if out.At(0, 0, 0, 0) != want {
		t.Errorf("corner pool = %d, want %d", out.At(0, 0, 0, 0), want)
	}
}

// maxPoolIntRef is MaxPoolInt as first written: a 4-D index and four
// padding tests per tap. The engine and its oracle share MaxPoolInt by
// design, so no differential engine test can see a mistake in it; this is
// what holds it.
func maxPoolIntRef(in *Int, spec PoolSpec) *Int {
	out := NewInt(spec.OutShape(in.Shape))
	is, os := in.Shape, out.Shape
	for n := 0; n < is.N; n++ {
		for c := 0; c < is.C; c++ {
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					first := true
					var best int32
					for kh := 0; kh < spec.K; kh++ {
						ih := oh*spec.Stride + kh - spec.Pad
						if ih < 0 || ih >= is.H {
							continue
						}
						for kw := 0; kw < spec.K; kw++ {
							iw := ow*spec.Stride + kw - spec.Pad
							if iw < 0 || iw >= is.W {
								continue
							}
							v := in.Data[is.Index(n, c, ih, iw)]
							if first || v > best {
								best, first = v, false
							}
						}
					}
					out.Data[os.Index(n, c, oh, ow)] = best
				}
			}
		}
	}
	return out
}

// Random shapes, windows, strides and pads — windows larger than the
// plane, 1×1 planes, odd planes, pads as wide as the window (so some
// windows see no input at all), several items — over values of both signs,
// plus rows wider than maxPool's stack row buffer.
func TestMaxPoolIntMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	check := func(shape Shape, spec PoolSpec) {
		t.Helper()
		in := randInt(rng, shape, -50, 50)
		got, want := MaxPoolInt(in, spec), maxPoolIntRef(in, spec)
		if got.Shape != want.Shape {
			t.Fatalf("%v %+v: shape %v, want %v", shape, spec, got.Shape, want.Shape)
		}
		// MaxPoolFloat is the same loop: on these small integers it must
		// pool to the same values.
		inF := NewFloat(shape)
		for i, v := range in.Data {
			inF.Data[i] = float32(v)
		}
		gotF := MaxPoolFloat(inF, spec)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] || gotF.Data[i] != float32(want.Data[i]) {
				t.Fatalf("%v %+v: out[%d] = %d (float %g), want %d", shape, spec, i, got.Data[i], gotF.Data[i], want.Data[i])
			}
		}
	}
	for _, spec := range []PoolSpec{{K: 2, Stride: 2}, {K: 3, Stride: 2, Pad: 1}, {K: 3, Stride: 1, Pad: 1}} {
		check(Shape{2, 2, 3, 301}, spec)
	}
	seen := map[string]bool{}
	for trial := 0; trial < 2000; trial++ {
		shape := Shape{1 + rng.IntN(3), 1 + rng.IntN(3), 1 + rng.IntN(9), 1 + rng.IntN(9)}
		spec := PoolSpec{K: 1 + rng.IntN(4), Stride: 1 + rng.IntN(3)}
		spec.Pad = rng.IntN(spec.K + 1)
		if os := spec.OutShape(shape); shape.H+2*spec.Pad < spec.K || shape.W+2*spec.Pad < spec.K || os.H < 1 || os.W < 1 {
			continue // the window does not fit even the padded plane
		}
		seen["pad"] = seen["pad"] || spec.Pad > 0
		seen["K>H"] = seen["K>H"] || spec.K > shape.H
		seen["1x1"] = seen["1x1"] || shape.H == 1 && shape.W == 1
		seen["odd HxW"] = seen["odd HxW"] || shape.H%2 == 1 && shape.W%2 == 1 && shape.H > 1
		seen["N>1"] = seen["N>1"] || shape.N > 1
		seen["all-pad window"] = seen["all-pad window"] || spec.Pad >= spec.K
		check(shape, spec)
	}
	for name, ok := range seen {
		if !ok {
			t.Fatalf("generator regressed: no %s case in 2000 trials", name)
		}
	}
}

// BenchmarkMaxPoolInt pools vgg9's three 2×2/s2 layers and a ResNet-stem
// 3×3/s2/p1 window; ns/op is per output.
func BenchmarkMaxPoolInt(b *testing.B) {
	for _, tc := range []struct {
		name  string
		shape Shape
		spec  PoolSpec
	}{
		{"vgg9_pool1", Shape{1, 64, 32, 32}, PoolSpec{K: 2, Stride: 2}},
		{"vgg9_pool2", Shape{1, 128, 16, 16}, PoolSpec{K: 2, Stride: 2}},
		{"vgg9_pool3", Shape{1, 256, 8, 8}, PoolSpec{K: 2, Stride: 2}},
		{"stem_3x3s2p1", Shape{1, 64, 56, 56}, PoolSpec{K: 3, Stride: 2, Pad: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := randInt(rand.New(rand.NewPCG(3, 3)), tc.shape, 0, 255)
			outs := tc.spec.OutShape(tc.shape).Elems()
			b.ReportAllocs()
			for b.Loop() {
				MaxPoolInt(in, tc.spec)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*outs), "ns/out")
		})
	}
}

func TestGlobalAvgPoolIntRounding(t *testing.T) {
	in := NewInt(Shape{1, 2, 2, 2})
	copy(in.Data, []int32{1, 2, 2, 2, -1, -2, -2, -2}) // means 1.75, -1.75
	out := GlobalAvgPoolInt(in)
	if out.Data[0] != 2 {
		t.Errorf("avg ch0 = %d, want 2 (round half away from zero)", out.Data[0])
	}
	if out.Data[1] != -2 {
		t.Errorf("avg ch1 = %d, want -2", out.Data[1])
	}
}

func TestArgmax(t *testing.T) {
	x := NewInt(Shape{2, 3, 1, 1})
	copy(x.Data, []int32{1, 9, 3, 7, 2, 7})
	got := x.ArgmaxInt()
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("argmax = %v, want [1 0] (ties to lowest)", got)
	}
}

func TestReLUAndAdd(t *testing.T) {
	x := NewFloat(Shape{1, 1, 1, 4})
	copy(x.Data, []float32{-3, 0, 2, -1})
	y := x.Clone()
	y.ReLUFloat()
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("relu[%d] = %g, want %g", i, y.Data[i], want[i])
		}
	}
	x.AddFloat(y)
	if x.Data[2] != 4 {
		t.Errorf("add failed: %v", x.Data)
	}

	xi := NewInt(Shape{1, 1, 1, 4})
	copy(xi.Data, []int32{-3, 0, 2, -1})
	yi := NewInt(xi.Shape)
	copy(yi.Data, []int32{0, 0, 2, 0})
	xi.AddInt(yi)
	for i, w := range []int32{-3, 0, 4, -1} {
		if xi.Data[i] != w {
			t.Errorf("AddInt[%d] = %d, want %d", i, xi.Data[i], w)
		}
	}
}

// quick-check: the row-streaming kernel equals the per-pixel reference
// over generated configs.
func TestQuickConvEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		spec := ConvSpec{
			Cin: 1 + rng.IntN(3), Cout: 1 + rng.IntN(3),
			Fh: 1 + rng.IntN(3), Fw: 1 + rng.IntN(3),
			Stride: 1 + rng.IntN(2),
		}
		spec.Pad = rng.IntN(2)
		in := randInt(rng, Shape{1, spec.Cin, spec.Fh + rng.IntN(4), spec.Fw + rng.IntN(4)}, -16, 16)
		w := randTernary(rng, spec.Cout*spec.Cin*spec.Fh*spec.Fw)
		return ConvIntTernarySparse(in, w, spec).Equal(convInt(in, w, spec))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
