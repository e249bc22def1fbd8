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

// MaxPoolFloat applies K×K max pooling on a float tensor.
func MaxPoolFloat(in *Float, spec PoolSpec) *Float {
	spec.check()
	out := NewFloat(spec.OutShape(in.Shape))
	maxPool(out.Data, in.Data, out.Shape, in.Shape, spec)
	return out
}

func maxPool[T int32 | float32](dst, src []T, os, is Shape, spec PoolSpec) {
	for nc := 0; nc < is.N*is.C; nc++ {
		plane := src[nc*is.H*is.W:][:is.H*is.W]
		out := dst[nc*os.H*os.W:][:os.H*os.W]
		for oh := 0; oh < os.H; oh++ {
			// Clip each window to the taps inside the input once, instead
			// of testing every tap: rows [h0, h1) × columns [w0, w1).
			h0, h1 := max(oh*spec.Stride-spec.Pad, 0), min(oh*spec.Stride-spec.Pad+spec.K, is.H)
			for ow := 0; ow < os.W; ow++ {
				w0, w1 := max(ow*spec.Stride-spec.Pad, 0), min(ow*spec.Stride-spec.Pad+spec.K, is.W)
				var best T
				if h0 < h1 && w0 < w1 {
					best = plane[h0*is.W+w0]
				}
				for ih := h0; ih < h1; ih++ {
					for _, v := range plane[ih*is.W:][w0:w1] {
						if v > best {
							best = v
						}
					}
				}
				out[oh*os.W+ow] = best
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
