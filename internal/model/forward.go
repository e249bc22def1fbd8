package model

import (
	"fmt"
	"math"
	"time"

	"rtmap/internal/quant"
	"rtmap/internal/tensor"
)

// IntTrace captures the integer execution of a network: per-layer output
// code tensors and the real-valued scale attached to each (value ≈
// code·scale). The functional AP simulator replays conv layers against
// this trace to prove bit-exactness with the software reference.
type IntTrace struct {
	Outputs []*tensor.Int
	Scales  []float64
	// InputCodes is the quantized network input presented to layer 0.
	InputCodes *tensor.Int
}

// Logits returns the final layer output codes.
func (t *IntTrace) Logits() *tensor.Int { return t.Outputs[len(t.Outputs)-1] }

// InputOf returns the code tensor feeding layer i (resolving InputRef).
func (t *IntTrace) InputOf(n *Network, i int, arg int) *tensor.Int {
	idx := n.Layers[i].Inputs[arg]
	if idx == InputRef {
		return t.InputCodes
	}
	return t.Outputs[idx]
}

// ForwardInt runs the integer reference path: activations are integer codes
// exactly as stored in the AP's nanowires, convolutions are pure ternary
// add/sub accumulations, and KindActQuant layers apply the fused
// ReLU+requantize step. This is the "software accuracy" baseline the AP
// must match bit-for-bit.
func (n *Network) ForwardInt(in *tensor.Float) (*IntTrace, error) {
	return n.forwardInt(in, ConvReference)
}

// ForwardIntQuantized runs the integer path with a custom conv/linear
// executor. Baseline models use it to inject their analog imperfections
// (e.g. the crossbar's per-tile ADC requantization) while keeping every
// other layer bit-identical to the reference, so accuracy comparisons
// isolate exactly the compute-substrate difference.
func (n *Network) ForwardIntQuantized(in *tensor.Float,
	conv func(x *tensor.Int, l *Layer) *tensor.Int) (*IntTrace, error) {
	return n.forwardInt(in, func(_ int, l *Layer, xs, outs []*tensor.Int) error {
		for j, x := range xs {
			outs[j] = conv(x, l)
		}
		return nil
	})
}

func (n *Network) forwardInt(in *tensor.Float, conv ConvExec) (*IntTrace, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	tr, err := n.NewTrace(in)
	if err != nil {
		return nil, err
	}
	if err := n.ExecLayers([]*IntTrace{tr}, 0, len(n.Layers), conv, nil); err != nil {
		return nil, err
	}
	return tr, nil
}

// NewTrace is the one entry to the integer path: it checks in against the
// network's input shape and returns an empty trace seeded with the
// quantized input codes.
func (n *Network) NewTrace(in *tensor.Float) (*IntTrace, error) {
	want := n.InputShape
	if in.Shape.C != want.C || in.Shape.H != want.H || in.Shape.W != want.W ||
		len(in.Data) != in.Shape.Elems() {
		return nil, fmt.Errorf("model %s: input shape %v holding %d values, want CxHxW %dx%dx%d",
			n.Name, in.Shape, len(in.Data), want.C, want.H, want.W)
	}
	codes := tensor.NewInt(in.Shape)
	for i, v := range in.Data {
		codes.Data[i] = n.InputQ.Quantize(v)
	}
	return &IntTrace{
		Outputs:    make([]*tensor.Int, len(n.Layers)),
		Scales:     make([]float64, len(n.Layers)),
		InputCodes: codes,
	}, nil
}

// ConvExec computes conv/linear layer i (l is &n.Layers[i]) for a batch:
// xs[j] holds item j's input codes, and the executor stores item j's
// accumulated, pre-requantization output in outs[j]. It is the only thing
// that differs between the software reference, the AP engine and the
// crossbar/DeepCAM baselines.
type ConvExec func(i int, l *Layer, xs, outs []*tensor.Int) error

// ConvReference is the software-reference executor: sparse ternary
// add/sub accumulation, item by item.
func ConvReference(_ int, l *Layer, xs, outs []*tensor.Int) error {
	for j, x := range xs {
		outs[j] = tensor.ConvIntTernarySparse(x, l.W.W, l.ConvSpec())
	}
	return nil
}

// LayerHook observes one layer's execution: its index and name, the
// wall-clock start (UnixNano) and duration of the interpretation. Hooks
// feed the sampled per-layer tracing spans of the serving stack; a nil
// hook costs one branch per layer and no clock reads, so the untraced hot
// path is unchanged.
type LayerHook func(layer int, name string, startUnixNS, durNS int64)

// ExecLayers executes the layer range [lo, hi) on every trace, reading
// inputs from and writing outputs back to each: conv/linear layers once
// per layer for the whole batch through conv, every other kind on its
// exact integer semantics — written here and nowhere else. An input
// tensor a trace does not hold is an error, so a sharded stage run proves
// its boundary transfer set is sufficient. hook, when non-nil, is called
// once per layer for the whole batch, not per item.
func (n *Network) ExecLayers(trs []*IntTrace, lo, hi int, conv ConvExec, hook LayerHook) error {
	getT := func(tr *IntTrace, i, arg int) (*tensor.Int, error) {
		if x := tr.InputOf(n, i, arg); x != nil {
			return x, nil
		}
		what := "network input"
		if idx := n.Layers[i].Inputs[arg]; idx != InputRef {
			what = fmt.Sprintf("layer %d output", idx)
		}
		return nil, fmt.Errorf("layer %d (%s): %s not resident", i, n.Layers[i].Name, what)
	}
	getS := func(tr *IntTrace, idx int) float64 {
		if idx == InputRef {
			return float64(n.InputQ.Step)
		}
		return tr.Scales[idx]
	}
	xs := make([]*tensor.Int, len(trs))
	outs := make([]*tensor.Int, len(trs))
	for i := lo; i < hi; i++ {
		l := &n.Layers[i]
		var start time.Time
		if hook != nil {
			start = time.Now()
		}
		for j, tr := range trs {
			x, err := getT(tr, i, 0)
			if err != nil {
				return err
			}
			xs[j] = x
		}
		if l.Kind == KindConv || l.Kind == KindLinear {
			if err := conv(i, l, xs, outs); err != nil {
				return err
			}
		}
		for j, tr := range trs {
			x, s := xs[j], getS(tr, l.Inputs[0])
			switch l.Kind {
			case KindConv, KindLinear:
				tr.Outputs[i] = outs[j]
				tr.Scales[i] = s * float64(l.WScale)
			case KindMaxPool:
				tr.Outputs[i] = tensor.MaxPoolInt(x, l.Pool)
				tr.Scales[i] = s
			case KindGlobalAvgPool:
				tr.Outputs[i] = tensor.GlobalAvgPoolInt(x)
				tr.Scales[i] = s
			case KindActQuant:
				out := tensor.NewInt(x.Shape)
				requantInto(out.Data, x.Data, s/float64(l.Q.Step), l.Q, l.ReLU)
				tr.Outputs[i] = out
				tr.Scales[i] = float64(l.Q.Step)
			case KindAdd:
				y, err := getT(tr, i, 1)
				if err != nil {
					return err
				}
				if sy := getS(tr, l.Inputs[1]); !scalesClose(s, sy) {
					return fmt.Errorf("layer %d (%s): residual scales differ (%g vs %g)",
						i, l.Name, s, sy)
				}
				out := x.Clone()
				out.AddInt(y)
				tr.Outputs[i] = out
				tr.Scales[i] = s
			case KindFlatten:
				tr.Outputs[i] = &tensor.Int{
					Shape: tensor.Shape{N: x.Shape.N, C: x.Shape.C * x.Shape.H * x.Shape.W, H: 1, W: 1},
					Data:  x.Data,
				}
				tr.Scales[i] = s
			default:
				return fmt.Errorf("layer %d: unknown kind %v", i, l.Kind)
			}
		}
		if hook != nil {
			hook(i, l.Name, start.UnixNano(), time.Since(start).Nanoseconds())
		}
	}
	return nil
}

// RequantCode applies the fused activation/requantization step to one
// accumulated partial sum: ReLU+requantize for hidden activations, or a
// plain clamp onto a (possibly signed) grid for residual alignment. The
// functional AP simulator applies exactly this function in its peripheral
// requantize step so the integer paths stay bit-identical.
func RequantCode(c int32, scale float64, q quant.Quantizer, relu bool) int32 {
	if relu {
		return quant.Requantize(c, scale, q)
	}
	v := int32(roundToEven(float64(c) * scale))
	if v < q.Qn() {
		v = q.Qn()
	}
	if v > q.Qp() {
		v = q.Qp()
	}
	return v
}

// requantInto is RequantCode over a whole tensor, with what is per layer
// — the mode and the clamps — decided once instead of per element.
func requantInto(dst, src []int32, scale float64, q quant.Quantizer, relu bool) {
	lo, hi := q.Qn(), q.Qp()
	if relu {
		for k, c := range src {
			dst[k] = min(max(int32(math.RoundToEven(float64(c)*scale)), 0), hi)
		}
		return
	}
	for k, c := range src {
		dst[k] = min(max(int32(roundToEven(float64(c)*scale)), lo), hi)
	}
}

func roundToEven(x float64) float64 {
	f := float64(int64(x))
	d := x - f
	switch {
	case d > 0.5 || (d == 0.5 && int64(f)%2 != 0):
		return f + 1
	case d < -0.5 || (d == -0.5 && int64(f)%2 != 0):
		return f - 1
	}
	return f
}

func scalesClose(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-9*m
}

// ForwardFloat runs the full-precision reference path: float activations,
// dequantized ternary weights (±α), ReLU, and fake-quantization at the
// KindActQuant sites (straight-through estimate of the integer path). With
// quantizers disabled (Step == 0 is not allowed, so callers pass
// fakeQuant=false) this is the FP teacher used by the accuracy harness.
func (n *Network) ForwardFloat(in *tensor.Float, fakeQuant bool) ([]*tensor.Float, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	outs := make([]*tensor.Float, len(n.Layers))
	get := func(idx int) *tensor.Float {
		if idx == InputRef {
			return in
		}
		return outs[idx]
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		x := get(l.Inputs[0])
		switch l.Kind {
		case KindConv, KindLinear:
			outs[i] = tensor.ConvFloatTernary(x, l.W.W, l.WScale, l.ConvSpec())
		case KindMaxPool:
			outs[i] = tensor.MaxPoolFloat(x, l.Pool)
		case KindGlobalAvgPool:
			outs[i] = tensor.GlobalAvgPoolFloat(x)
		case KindActQuant:
			out := x.Clone()
			if l.ReLU {
				out.ReLUFloat()
			}
			if fakeQuant {
				for j, v := range out.Data {
					out.Data[j] = l.Q.FakeQuant(v)
				}
			}
			outs[i] = out
		case KindAdd:
			out := x.Clone()
			out.AddFloat(get(l.Inputs[1]))
			outs[i] = out
		case KindFlatten:
			outs[i] = &tensor.Float{
				Shape: tensor.Shape{N: x.Shape.N, C: x.Shape.C * x.Shape.H * x.Shape.W, H: 1, W: 1},
				Data:  x.Data,
			}
		default:
			return nil, fmt.Errorf("layer %d: unknown kind %v", i, l.Kind)
		}
	}
	return outs, nil
}
