package xbar

import (
	"math"

	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// Params are the crossbar figures of merit (energies in pJ, times in ns).
type Params struct {
	ArrayRows, ArrayCols int
	WeightBits           int
	ADCBits              int

	// Energy per event.
	ADCPJ       float64 // one 5-bit conversion
	MACRowPJ    float64 // one row's analog contribution during one cycle
	AccumPJ     float64 // shift-add of one converted partial sum
	BufferPJBit float64 // SRAM buffer read+write per activation bit
	MovePJBit   float64 // interconnect per bit (NoC hop included)
	PeriphPJCol float64 // mux/switch-matrix per column access
	// PSumMoveFrac is the fraction of converted partial-sum bits that
	// traverse the global interconnect (the rest accumulate inside the
	// tile hierarchy before moving).
	PSumMoveFrac float64

	// Timing: per output position the pipeline needs a base read plus a
	// small per-activation-bit increment (NeuroSim's latency grows only
	// mildly from 4- to 8-bit inputs: Table II shows 9.56→12.2 ms).
	ReadBaseNS float64
	ReadBitNS  float64
}

// Default returns the calibrated NeuroSim-flavored configuration
// (256×256 arrays, 8-bit weights, 5-bit ADCs as in §V).
func Default() Params {
	return Params{
		ArrayRows: 256, ArrayCols: 256,
		WeightBits: 8, ADCBits: 5,

		ADCPJ:        1.45, // 5-bit SAR ADC per conversion
		MACRowPJ:     0.04, // bitline/cell read per active row-cycle
		AccumPJ:      0.12,
		BufferPJBit:  0.12,
		MovePJBit:    1.0,
		PeriphPJCol:  0.2,
		PSumMoveFrac: 0.3,

		ReadBaseNS: 300,
		ReadBitNS:  11,
	}
}

// Breakdown splits crossbar energy by component, mirroring the paper's
// Fig. 4 stacking for the baseline (ADC, crossbar, accumulation,
// peripherals/buffers, interconnect).
type Breakdown struct {
	ADCPJ      float64
	CrossbarPJ float64
	AccumPJ    float64
	PeriphPJ   float64
	MovePJ     float64
}

// TotalPJ sums the components.
func (b Breakdown) TotalPJ() float64 {
	return b.ADCPJ + b.CrossbarPJ + b.AccumPJ + b.PeriphPJ + b.MovePJ
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.ADCPJ += o.ADCPJ
	b.CrossbarPJ += o.CrossbarPJ
	b.AccumPJ += o.AccumPJ
	b.PeriphPJ += o.PeriphPJ
	b.MovePJ += o.MovePJ
}

// LayerReport is the per-layer crossbar cost.
type LayerReport struct {
	Name      string
	Index     int
	Energy    Breakdown
	LatencyNS float64
	Arrays    int
}

// Report is the whole-network crossbar analysis.
type Report struct {
	Layers         []LayerReport
	Total          Breakdown
	TotalLatencyNS float64
	// Arrays is the Table II "#Arrays" metric: the largest layer's tile
	// count (weights are reloaded per layer onto a fixed array pool).
	Arrays int
}

// EnergyUJ returns total energy in µJ.
func (r *Report) EnergyUJ() float64 { return r.Total.TotalPJ() / 1e6 }

// LatencyMS returns total latency in ms.
func (r *Report) LatencyMS() float64 { return r.TotalLatencyNS / 1e6 }

// MovementShare returns interconnect energy over total (the paper: 41%).
func (r *Report) MovementShare() float64 {
	t := r.Total.TotalPJ()
	if t == 0 {
		return 0
	}
	return r.Total.MovePJ / t
}

// Analyze estimates the crossbar cost of running the network with
// activations quantized to actBits.
func Analyze(net *model.Network, par Params, actBits int) *Report {
	rep := &Report{}
	shapes := net.OutShapes(1)
	inShape := func(i int) tensor.Shape {
		idx := net.Layers[i].Inputs[0]
		if idx == model.InputRef {
			return net.InputShape
		}
		return shapes[idx]
	}
	for i := range net.Layers {
		l := &net.Layers[i]
		if l.Kind != model.KindConv && l.Kind != model.KindLinear {
			continue
		}
		is, os := inShape(i), shapes[i]
		lr := analyzeConv(l, par, actBits, is, os, i)
		rep.Layers = append(rep.Layers, lr)
		rep.Total.Add(lr.Energy)
		rep.TotalLatencyNS += lr.LatencyNS
		if lr.Arrays > rep.Arrays {
			rep.Arrays = lr.Arrays
		}
	}
	return rep
}

func analyzeConv(l *model.Layer, par Params, actBits int, is, os tensor.Shape, idx int) LayerReport {
	w := l.W
	kTotal := w.Cin * w.Fh * w.Fw
	p := os.H * os.W
	rowTiles := ceilDiv(kTotal, par.ArrayRows)
	colTiles := ceilDiv(w.Cout, par.ArrayCols)
	arrays := rowTiles * colTiles

	// Input vectors stream bit-serially: actBits cycles per output
	// position per row tile; every active column converts once per cycle.
	cyclesPerPos := float64(actBits)
	positions := float64(p)
	activeRowsLast := kTotal - (rowTiles-1)*par.ArrayRows
	avgRows := (float64(par.ArrayRows)*float64(rowTiles-1) + float64(activeRowsLast)) / float64(rowTiles)

	conversions := positions * cyclesPerPos * float64(rowTiles) * float64(w.Cout)
	rowCycles := positions * cyclesPerPos * float64(rowTiles) * avgRows * float64(colTiles)

	var e Breakdown
	e.ADCPJ = conversions * par.ADCPJ
	e.CrossbarPJ = rowCycles * par.MACRowPJ
	e.AccumPJ = conversions * par.AccumPJ
	e.PeriphPJ = conversions*par.PeriphPJCol + positions*float64(kTotal*actBits)*par.BufferPJBit
	// Interconnect: input feature maps fan out to every column tile and a
	// fraction of the converted partial-sum bits traverses the global
	// interconnect (the rest accumulates within the tile hierarchy).
	inBits := float64(is.C*is.H*is.W*actBits) * float64(colTiles)
	psBits := positions * float64(w.Cout) * float64(par.ADCBits+8) * float64(rowTiles) * par.PSumMoveFrac
	e.MovePJ = (inBits + psBits) * par.MovePJBit

	// Latency: tiles are spatially parallel; output positions stream
	// through the pipeline with a weak dependence on activation width.
	lat := positions * (par.ReadBaseNS + float64(actBits)*par.ReadBitNS)

	return LayerReport{
		Name: l.Name, Index: idx,
		Energy: e, LatencyNS: lat, Arrays: arrays,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ForwardADC runs the integer forward pass with the crossbar's 5-bit ADC
// quantization injected into every row-tile partial sum — the mechanism
// behind the baseline's accuracy loss in Table II (e.g. VGG-9: 93.2% FP →
// 90.2% on DNN+NeuroSim). Partial sums of each 256-row chunk are clipped
// and re-quantized to ADCBits before digital accumulation.
func ForwardADC(net *model.Network, in *tensor.Float, par Params) (*model.IntTrace, error) {
	return net.ForwardIntQuantized(in, func(x *tensor.Int, l *model.Layer) *tensor.Int {
		return convWithADC(x, l, par)
	})
}

// convWithADC computes a conv/linear layer with per-row-chunk ADC
// requantization, iterating nonzero weights only.
func convWithADC(x *tensor.Int, l *model.Layer, par Params) *tensor.Int {
	spec := l.ConvSpec()
	out := tensor.NewInt(spec.OutShape(x.Shape))
	kTotal := spec.Cin * spec.Fh * spec.Fw
	rowTiles := ceilDiv(kTotal, par.ArrayRows)
	chunk := par.ArrayRows
	levels := int32(1) << uint(par.ADCBits-1)

	// Nonzero taps of every (output, row-tile) pair.
	type tap struct {
		ki   int
		sign int64
	}
	taps := make([][]tap, spec.Cout*rowTiles)
	var fullScale int64 = 1
	for co := 0; co < spec.Cout; co++ {
		wRow := l.W.W[co*kTotal : (co+1)*kTotal]
		for t := 0; t < rowTiles; t++ {
			lo, hi := t*chunk, min((t+1)*chunk, kTotal)
			var ts []tap
			for ki := lo; ki < hi; ki++ {
				switch wRow[ki] {
				case 1:
					ts = append(ts, tap{ki, 1})
				case -1:
					ts = append(ts, tap{ki, -1})
				}
			}
			taps[co*rowTiles+t] = ts
			// ADC full scale: the largest magnitude a chunk sum reaches
			// (NeuroSim calibrates its ADC ranges per layer).
			if sc := int64(len(ts)) * 15; sc > fullScale {
				fullScale = sc
			}
		}
	}
	step := float64(fullScale) / float64(levels)
	if step < 1 {
		step = 1
	}

	for n := 0; n < x.Shape.N; n++ {
		col := im2col(x, n, spec)
		p := out.Shape.H * out.Shape.W
		for co := 0; co < spec.Cout; co++ {
			outBase := out.Shape.Index(n, co, 0, 0)
			for pos := 0; pos < p; pos++ {
				var acc int64
				for t := 0; t < rowTiles; t++ {
					var ps int64
					for _, tp := range taps[co*rowTiles+t] {
						ps += tp.sign * int64(col[tp.ki*p+pos])
					}
					// 5-bit ADC: clip and quantize the analog partial sum.
					q := math.RoundToEven(float64(ps) / step)
					if q > float64(levels-1) {
						q = float64(levels - 1)
					}
					if q < -float64(levels) {
						q = -float64(levels)
					}
					acc += int64(q * step)
				}
				out.Data[outBase+pos] = int32(acc)
			}
		}
	}
	return out
}

// im2col lowers batch element n of x into the (Cin·Fh·Fw) × (Hout·Wout)
// matrix a crossbar's rows read, row-major and channel-major over rows:
// m[(c·Fh·Fw + kh·Fw + kw)·P + oh·Wout + ow] is tap (kh, kw) of channel c
// under output point (oh, ow), with P = Hout·Wout. Taps in the padding
// read zero.
func im2col(x *tensor.Int, n int, spec tensor.ConvSpec) []int32 {
	is, os := x.Shape, spec.OutShape(x.Shape)
	p := os.H * os.W
	m := make([]int32, spec.Cin*spec.Fh*spec.Fw*p)
	for c := range spec.Cin {
		for kh := range spec.Fh {
			for kw := range spec.Fw {
				row := m[((c*spec.Fh+kh)*spec.Fw+kw)*p:][:p]
				for oh := range os.H {
					ih := oh*spec.Stride + kh - spec.Pad
					for ow := range os.W {
						iw := ow*spec.Stride + kw - spec.Pad
						if ih >= 0 && ih < is.H && iw >= 0 && iw < is.W {
							row[oh*os.W+ow] = x.At(n, c, ih, iw)
						}
					}
				}
			}
		}
	}
	return m
}
