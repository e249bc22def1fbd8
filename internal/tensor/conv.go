package tensor

import "fmt"

// ConvSpec describes a 2-D convolution. Weights are supplied by the caller
// in OIHW order (Cout, Cin, Fh, Fw) as ternary codes in {−1, 0, 1}.
type ConvSpec struct {
	Cin, Cout int
	Fh, Fw    int
	Stride    int
	Pad       int
}

// OutShape returns the output shape of the convolution for input shape in.
func (c ConvSpec) OutShape(in Shape) Shape {
	return Shape{
		N: in.N,
		C: c.Cout,
		H: ConvOutDim(in.H, c.Fh, c.Stride, c.Pad),
		W: ConvOutDim(in.W, c.Fw, c.Stride, c.Pad),
	}
}

// check panics unless an input of shape in and nw weights fit the spec.
func (c ConvSpec) check(in Shape, nw int) {
	if in.C != c.Cin {
		panic(fmt.Sprintf("tensor: conv expects %d input channels, got %d", c.Cin, in.C))
	}
	if c.Stride <= 0 {
		panic("tensor: conv stride must be positive")
	}
	if nw != c.Cout*c.Cin*c.Fh*c.Fw {
		panic(fmt.Sprintf("tensor: weight length %d does not match spec %+v", nw, c))
	}
}

// ConvIntTernarySparse convolves integer codes with ternary weights (OIHW,
// zero padding): each output is the sum of the inputs under its +1 taps
// minus those under its −1 taps — the pure addition/subtraction the AP
// executes. It is the oracle's convolution.
func ConvIntTernarySparse(in *Int, w []int8, spec ConvSpec) *Int {
	spec.check(in.Shape, len(w))
	out := NewInt(spec.OutShape(in.Shape))
	convTernary(out.Data, in.Data, w, out.Shape, in.Shape, spec)
	return out
}

// ConvFloatTernary is the float convolution of a TWN layer whose weights
// are alpha·t, t ∈ {−1, 0, 1}: out = alpha·(Σ_{t=+1} x − Σ_{t=−1} x), the
// sum taken first and scaled once.
func ConvFloatTernary(in *Float, t []int8, alpha float32, spec ConvSpec) *Float {
	spec.check(in.Shape, len(t))
	out := NewFloat(spec.OutShape(in.Shape))
	convTernary(out.Data, in.Data, t, out.Shape, in.Shape, spec)
	for i := range out.Data {
		out.Data[i] *= alpha
	}
	return out
}

// convTernary accumulates the ternary convolution of src into the zeroed
// dst. Each tap's output rows and columns whose input lies inside the
// plane are found once; then every nonzero tap of a (co, ci) filter slice
// streams whole output rows, o[ow] ± x[ow·S + kw − P], with no test per
// pixel. Each output sums its taps in (ci, kh, kw) order, so float results
// round as a per-pixel loop's do.
func convTernary[T int32 | float32](dst, src []T, w []int8, os, is Shape, spec ConvSpec) {
	s, p, k := spec.Stride, spec.Pad, spec.Fh*spec.Fw
	type reach struct{ oh0, oh1, ow0, ow1, x0 int } // x0: input offset of (oh0, ow0)
	reaches := make([]reach, k)
	for t := range reaches {
		dh, dw := t/spec.Fw-p, t%spec.Fw-p // tap (kh, kw) reads input (oh·s + dh, ow·s + dw)
		r := reach{firstOut(dh, s), endOut(dh, is.H, os.H, s), firstOut(dw, s), endOut(dw, is.W, os.W, s), 0}
		r.x0 = (r.oh0*s+dh)*is.W + r.ow0*s + dw
		if r.ow0 >= r.ow1 {
			r.oh1 = r.oh0 // no column in reach: stream no row
		}
		reaches[t] = r
	}
	inPlane, outPlane := is.H*is.W, os.H*os.W
	for n := range is.N {
		for co := range spec.Cout {
			out := dst[(n*spec.Cout+co)*outPlane:][:outPlane]
			for ci := range spec.Cin {
				in := src[(n*spec.Cin+ci)*inPlane:][:inPlane]
				for t, wv := range w[(co*spec.Cin+ci)*k:][:k] {
					if wv == 0 {
						continue
					}
					r := reaches[t]
					width := r.ow1 - r.ow0
					for oh, x0 := r.oh0, r.x0; oh < r.oh1; oh, x0 = oh+1, x0+s*is.W {
						addRow(out[oh*os.W+r.ow0:][:width], in[x0:][:(width-1)*s+1], s, wv < 0)
					}
				}
			}
		}
	}
}

// addRow adds x[i·s] into o[i] for every i, or subtracts it if neg.
func addRow[T int32 | float32](o, x []T, s int, neg bool) {
	switch {
	case s == 1 && neg:
		for i, v := range x[:len(o)] {
			o[i] -= v
		}
	case s == 1:
		for i, v := range x[:len(o)] {
			o[i] += v
		}
	case neg:
		for i := range o {
			o[i] -= x[i*s]
		}
	default:
		for i := range o {
			o[i] += x[i*s]
		}
	}
}
