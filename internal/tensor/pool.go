package tensor

import "fmt"

// PoolSpec describes a 2-D pooling window.
type PoolSpec struct {
	K      int // window size (K×K)
	Stride int
	Pad    int
}

// OutShape returns the pooled output shape for input shape in.
func (p PoolSpec) OutShape(in Shape) Shape {
	return Shape{
		N: in.N,
		C: in.C,
		H: ConvOutDim(in.H, p.K, p.Stride, p.Pad),
		W: ConvOutDim(in.W, p.K, p.Stride, p.Pad),
	}
}

func (p PoolSpec) check() {
	if p.K <= 0 || p.Stride <= 0 {
		panic(fmt.Sprintf("tensor: invalid pool spec %+v", p))
	}
}

// MaxPoolInt applies K×K max pooling. Padded positions are ignored (they
// never win the max), matching framework semantics for ReLU-positive codes;
// a window that lies wholly in the padding pools to 0.
func MaxPoolInt(in *Int, spec PoolSpec) *Int {
	spec.check()
	out := NewInt(spec.OutShape(in.Shape))
	maxPool(out.Data, in.Data, out.Shape, in.Shape, spec)
	return out
}

// MaxPoolIntInto is MaxPoolInt into a caller-owned out of the pooled
// shape.
func MaxPoolIntInto(out, in *Int, spec PoolSpec) {
	spec.check()
	if want := spec.OutShape(in.Shape); out.Shape != want {
		panic(fmt.Sprintf("tensor: pool output shape %v, want %v", out.Shape, want))
	}
	maxPool(out.Data, in.Data, out.Shape, in.Shape, spec)
}

// MaxPoolFloat applies K×K max pooling on a float tensor.
func MaxPoolFloat(in *Float, spec PoolSpec) *Float {
	spec.check()
	out := NewFloat(spec.OutShape(in.Shape))
	maxPool(out.Data, in.Data, out.Shape, in.Shape, spec)
	return out
}

// maxPool is separable and has no branch per tap: for each output row, the
// max of its window's input rows goes column by column into a row buffer,
// then each window takes its first column and K strided horizontal passes
// fold in the rest. Windows are clipped to the input once per row and per
// tap column; outputs whose window lies wholly in the padding are zeroed.
func maxPool[T int32 | float32](dst, src []T, os, is Shape, spec PoolSpec) {
	k, s, pad := spec.K, spec.Stride, spec.Pad
	var buf [256]T // the row buffer, on the stack for rows up to 256 wide
	row := buf[:]
	if is.W > len(buf) {
		row = make([]T, is.W)
	}
	row = row[:is.W]
	// Outputs [o0, o1) of a row have a window that reaches the input.
	o0, o1 := firstOut(k-1-pad, s), endOut(-pad, is.W, os.W, s)
	for nc := 0; nc < is.N*is.C; nc++ {
		plane := src[nc*is.H*is.W:][:is.H*is.W]
		for oh := 0; oh < os.H; oh++ {
			out := dst[(nc*os.H+oh)*os.W:][:os.W]
			h0, h1 := max(oh*s-pad, 0), min(oh*s-pad+k, is.H)
			if h0 >= h1 || o0 >= o1 {
				clear(out)
				continue
			}
			copy(row, plane[h0*is.W:][:is.W])
			for ih := h0 + 1; ih < h1; ih++ {
				in := plane[ih*is.W:][:is.W]
				row := row[:len(in)]
				for w, v := range in {
					row[w] = max(row[w], v)
				}
			}
			clear(out[:o0])
			clear(out[o1:])
			for o := o0; o < o1; o++ {
				out[o] = row[max(o*s-pad, 0)]
			}
			for kw := 1; kw < k; kw++ {
				a, b := firstOut(kw-pad, s), endOut(kw-pad, is.W, os.W, s)
				for o, w := a, a*s+kw-pad; o < b; o, w = o+1, w+s {
					out[o] = max(out[o], row[w])
				}
			}
		}
	}
}

// GlobalAvgPoolInt reduces each channel to its mean, rounded to nearest
// (ties away from zero). The AP realizes this as a sum in the accumulation
// phase followed by a peripheral divide; rounding keeps the integer and
// float paths aligned.
func GlobalAvgPoolInt(in *Int) *Int {
	is := in.Shape
	out := NewInt(Shape{N: is.N, C: is.C, H: 1, W: 1})
	area := int64(is.H * is.W)
	for n := 0; n < is.N; n++ {
		for c := 0; c < is.C; c++ {
			var sum int64
			for h := 0; h < is.H; h++ {
				for w := 0; w < is.W; w++ {
					sum += int64(in.Data[is.Index(n, c, h, w)])
				}
			}
			// Round half away from zero.
			var v int64
			if sum >= 0 {
				v = (sum + area/2) / area
			} else {
				v = (sum - area/2) / area
			}
			out.Data[out.Shape.Index(n, c, 0, 0)] = int32(v)
		}
	}
	return out
}

// GlobalAvgPoolFloat reduces each channel to its mean.
func GlobalAvgPoolFloat(in *Float) *Float {
	is := in.Shape
	out := NewFloat(Shape{N: is.N, C: is.C, H: 1, W: 1})
	area := float32(is.H * is.W)
	for n := 0; n < is.N; n++ {
		for c := 0; c < is.C; c++ {
			var sum float32
			for h := 0; h < is.H; h++ {
				for w := 0; w < is.W; w++ {
					sum += in.Data[is.Index(n, c, h, w)]
				}
			}
			out.Data[out.Shape.Index(n, c, 0, 0)] = sum / area
		}
	}
	return out
}

// firstOut and endOut bound the outputs o ∈ [0, nOut) at stride s whose
// input o·s + off lies in [0, n): they are [firstOut, endOut).
func firstOut(off, s int) int { return (max(0, -off) + s - 1) / s }

func endOut(off, n, nOut, s int) int { return min(nOut, max(0, (n-1-off+s)/s)) }
