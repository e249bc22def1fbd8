package tensor

// Im2ColChannel lowers one input channel of one batch element into the
// column matrix consumed by the RTM-AP mapping (Fig. 1 / Fig. 2 of the
// paper): the result M has Fh·Fw rows (the patch positions that become CAM
// columns) and Hout·Wout columns (the output positions that become CAM
// rows). Out-of-bounds taps read as zero (zero padding).
//
// M is returned row-major: M[k*P + p] is patch element k of output point p,
// with P = Hout·Wout.
func Im2ColChannel(in *Int, n, c int, spec ConvSpec) []int32 {
	is := in.Shape
	hout := ConvOutDim(is.H, spec.Fh, spec.Stride, spec.Pad)
	wout := ConvOutDim(is.W, spec.Fw, spec.Stride, spec.Pad)
	p := hout * wout
	m := make([]int32, spec.Fh*spec.Fw*p)
	for kh := 0; kh < spec.Fh; kh++ {
		for kw := 0; kw < spec.Fw; kw++ {
			row := kh*spec.Fw + kw
			for oh := 0; oh < hout; oh++ {
				ih := oh*spec.Stride + kh - spec.Pad
				for ow := 0; ow < wout; ow++ {
					iw := ow*spec.Stride + kw - spec.Pad
					var v int32
					if ih >= 0 && ih < is.H && iw >= 0 && iw < is.W {
						v = in.Data[is.Index(n, c, ih, iw)]
					}
					m[row*p+oh*wout+ow] = v
				}
			}
		}
	}
	return m
}

// Im2Col lowers the full input (one batch element) into a (Cin·Fh·Fw) ×
// (Hout·Wout) matrix, channel-major over rows, matching the classical GEMM
// formulation of convolution. Used to cross-validate the direct kernels.
func Im2Col(in *Int, n int, spec ConvSpec) []int32 {
	k := spec.Fh * spec.Fw
	p := ConvOutDim(in.Shape.H, spec.Fh, spec.Stride, spec.Pad) *
		ConvOutDim(in.Shape.W, spec.Fw, spec.Stride, spec.Pad)
	m := make([]int32, spec.Cin*k*p)
	for c := 0; c < spec.Cin; c++ {
		ch := Im2ColChannel(in, n, c, spec)
		copy(m[c*k*p:(c+1)*k*p], ch)
	}
	return m
}

// ConvIntGEMM computes the convolution as W_mat × im2col(in) where W_mat is
// the Cout × (Cin·Fh·Fw) reshaped weight matrix. Semantically identical to
// ConvInt; used as an independent oracle in tests.
func ConvIntGEMM(in *Int, w []int8, spec ConvSpec) *Int {
	spec.check(in.Shape)
	out := NewInt(spec.OutShape(in.Shape))
	os := out.Shape
	k := spec.Cin * spec.Fh * spec.Fw
	p := os.H * os.W
	for n := 0; n < in.Shape.N; n++ {
		col := Im2Col(in, n, spec)
		for co := 0; co < spec.Cout; co++ {
			wRow := w[co*k : (co+1)*k]
			outBase := os.Index(n, co, 0, 0)
			for i, wv := range wRow {
				if wv == 0 {
					continue
				}
				colRow := col[i*p : (i+1)*p]
				if wv > 0 {
					for j, x := range colRow {
						out.Data[outBase+j] += x
					}
				} else {
					for j, x := range colRow {
						out.Data[outBase+j] -= x
					}
				}
			}
		}
	}
	return out
}
