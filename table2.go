package rtmap

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/report"
	"rtmap/internal/sim"
	"rtmap/internal/tensor"
	"rtmap/internal/workload"
	"rtmap/internal/xbar"
)

// Table2Row is one row of the regenerated Table II.
type Table2Row = report.Table2Row

// Table2Options controls the Table II regeneration.
type Table2Options struct {
	// Seed drives synthetic weight generation and evaluation data.
	Seed uint64
	// AccuracySamples is the evaluation-set size for the top-1 agreement
	// columns; 0 skips the (slow) accuracy measurements.
	AccuracySamples int
	// CalibSamples is the number of calibration inputs per network.
	CalibSamples int
	// Networks restricts the run ("resnet18", "vgg9", "vgg11"); empty
	// means all three, as in the paper.
	Networks []string
	// Progress, when non-nil, receives status lines.
	Progress func(string)
	// Cache overrides the compiled-artifact cache consulted by every
	// compile of the run; nil uses the process-wide shared cache.
	Cache *CompileCache
	// NoCache disables artifact caching for the run entirely.
	NoCache bool
	// specs substitutes the network list (tests run the full Table II
	// pipeline on small models through this seam).
	specs []netSpec
}

// DefaultTable2Options mirrors the paper's table (accuracy columns on).
func DefaultTable2Options() Table2Options {
	return Table2Options{Seed: 1, AccuracySamples: 40, CalibSamples: 3}
}

// Table2Result is the regenerated table plus renderings.
type Table2Result struct {
	Rows []Table2Row
}

// Text renders the aligned text table.
func (t *Table2Result) Text() string { return report.RenderTable2(t.Rows) }

// TSV renders tab-separated values.
func (t *Table2Result) TSV() string { return report.Table2TSV(t.Rows) }

func nan() float64 { return math.NaN() }

type netSpec struct {
	key        string
	display    string
	build      func(model.Config) *Network
	sparsities []float64
	// accuracy substitution: network used for agreement runs (full-size
	// functional inference at ImageNet resolution is pointlessly slow in
	// a unit-level harness; layer structure and weights are identical).
	accBuild func(model.Config) *Network
	accNote  string
	deepCAM  bool
}

func table2Specs() []netSpec {
	return []netSpec{
		{
			key: "resnet18", display: "ResNet18/ImageNet",
			build:      model.ResNet18,
			sparsities: []float64{0.8},
			accBuild:   func(c model.Config) *Network { return model.MiniResNet18(c, 56, 56) },
		},
		{
			key: "vgg9", display: "VGG-9/CIFAR10",
			build:      model.VGG9,
			sparsities: []float64{0.85, 0.9},
			accBuild:   model.VGG9,
		},
		{
			key: "vgg11", display: "VGG-11/CIFAR10",
			build:      model.VGG11,
			sparsities: []float64{0.85, 0.9},
			accBuild:   model.VGG11,
			deepCAM:    true,
		},
	}
}

// Table2 regenerates Table II: for every network/sparsity it compiles and
// prices the RTM-AP `unroll+CSE` configuration at 4- and 8-bit
// activations, counts DFG adds/subs for both compiler configurations,
// prices the DNN+NeuroSim crossbar baseline, prices DeepCAM on VGG-11, and
// (optionally) measures top-1 teacher agreement for every system.
func Table2(opt Table2Options) (*Table2Result, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.CalibSamples <= 0 {
		opt.CalibSamples = 3
	}
	progress := opt.Progress
	if progress == nil {
		progress = func(string) {}
	}
	specs := opt.specs
	if specs == nil {
		specs = table2Specs()
	}
	keys := make([]string, len(specs))
	for i, spec := range specs {
		keys[i] = spec.key
	}
	want, unknown := map[string]bool{}, []string(nil)
	for _, n := range opt.Networks {
		want[n] = true
		if !slices.Contains(keys, n) {
			unknown = append(unknown, strconv.Quote(n))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("rtmap: Table II has no network %s (networks: %s)", strings.Join(unknown, ", "), strings.Join(keys, "|"))
	}
	res := &Table2Result{}

	for _, spec := range specs {
		if len(want) > 0 && !want[spec.key] {
			continue
		}
		for si, sp := range spec.sparsities {
			progress(fmt.Sprintf("%s sparsity %.2f: compiling RTM-AP", spec.display, sp))
			row, net4, err := rtmAPRow(spec, sp, opt)
			if err != nil {
				return nil, err
			}
			if opt.AccuracySamples > 0 {
				progress(fmt.Sprintf("%s sparsity %.2f: measuring agreement", spec.display, sp))
				if err := fillAccuracy(&row, spec, sp, opt, nil); err != nil {
					return nil, err
				}
			}
			res.Rows = append(res.Rows, row)

			// Baseline rows once per network (the paper lists them once).
			if si == 0 {
				progress(spec.display + ": crossbar baseline")
				xb := xbarRow(spec, net4, opt)
				if opt.AccuracySamples > 0 {
					if err := fillAccuracy(&xb, spec, sp, opt, adcForwarder); err != nil {
						return nil, err
					}
				}
				res.Rows = append(res.Rows, xb)
				if spec.deepCAM {
					progress(spec.display + ": DeepCAM baseline")
					dc := deepCAMRow(spec, net4, opt)
					if opt.AccuracySamples > 0 {
						if err := fillAccuracy(&dc, spec, sp, opt, hashForwarder); err != nil {
							return nil, err
						}
					}
					res.Rows = append(res.Rows, dc)
				}
			}
		}
	}
	return res, nil
}

func rtmAPRow(spec netSpec, sparsity float64, opt Table2Options) (Table2Row, *Network, error) {
	row := Table2Row{
		Network: spec.display, System: "RTM-AP (unroll+CSE)",
		Sparsity: sparsity,
		AccFP:    nan(), Acc4: nan(), Acc8: nan(),
	}
	var net4 *Network
	cfg := CompileConfigWithCache(opt.Cache, opt.NoCache)
	for _, bits := range []int{4, 8} {
		mc := model.Config{ActBits: bits, Sparsity: sparsity, Seed: opt.Seed}
		net := spec.build(mc)
		if bits == 4 {
			net4 = net
		}
		comp, err := core.Compile(net, cfg)
		if err != nil {
			return row, nil, err
		}
		rep := sim.Analyze(comp)
		if bits == 4 {
			row.Energy4UJ = rep.EnergyUJ()
			row.Latency4MS = rep.LatencyMS()
			row.Arrays = comp.PoolArrays
		} else {
			row.Energy8UJ = rep.EnergyUJ()
			row.Latency8MS = rep.LatencyMS()
		}
	}
	oc, err := core.CountOps(net4, cfg.Cache)
	if err != nil {
		return row, nil, err
	}
	row.AddsUnrollK = float64(oc.Unroll) / 1e3
	row.AddsCSEK = float64(oc.CSE) / 1e3
	return row, net4, nil
}

func xbarRow(spec netSpec, net4 *Network, opt Table2Options) Table2Row {
	par := xbar.Default()
	r4 := xbar.Analyze(net4, par, 4)
	r8 := xbar.Analyze(net4, par, 8)
	return Table2Row{
		Network: spec.display, System: "DNN+NeuroSim",
		Sparsity: nan(),
		AccFP:    nan(), Acc4: nan(), Acc8: nan(),
		Energy4UJ: r4.EnergyUJ(), Energy8UJ: r8.EnergyUJ(),
		Latency4MS: r4.LatencyMS(), Latency8MS: r8.LatencyMS(),
		Arrays:      r4.Arrays,
		AddsUnrollK: nan(), AddsCSEK: nan(),
	}
}

func deepCAMRow(spec netSpec, net4 *Network, opt Table2Options) Table2Row {
	r := analyzeDeepCAM(net4, defaultDeepCAM())
	return Table2Row{
		Network: spec.display, System: "DeepCAM",
		Sparsity: nan(),
		AccFP:    nan(), Acc4: nan(), Acc8: nan(),
		Energy4UJ: r.EnergyPJ / 1e6, Energy8UJ: nan(),
		Latency4MS: r.LatencyNS / 1e6, Latency8MS: nan(),
		Arrays:      r.Arrays,
		AddsUnrollK: nan(), AddsCSEK: nan(),
	}
}

// deepCAMParams are the figures of merit of the DeepCAM baseline [4] of
// Table II: a fully CAM-based accelerator that approximates dot products
// by hashing weights and activations into binary signatures and reading
// the Hamming distance off match-line discharge timing, on large CAM
// arrays. The paper compares against it at whole-network granularity
// only, and notes the two caveats this model reproduces: very low energy
// on small VGG-style networks, and poor scaling of accuracy and energy to
// deeper networks, because the approximation error compounds with depth.
type deepCAMParams struct {
	ArrayRows, ArrayCols int
	HashLen              int     // binary signature length (variable in [4])
	SearchPJPerBit       float64 // CAM search energy per cell
	MatchNSPerSearch     float64 // match-line discharge + timing readout
	PeriphPJPerOut       float64 // time-to-digital conversion per output
	MovePJBit            float64
}

// defaultDeepCAM is the Table II configuration (512×1024 arrays as in
// [4]).
func defaultDeepCAM() deepCAMParams {
	return deepCAMParams{
		ArrayRows: 512, ArrayCols: 1024,
		HashLen:          64,
		SearchPJPerBit:   0.02,
		MatchNSPerSearch: 5.0,
		PeriphPJPerOut:   1.9,
		MovePJBit:        1.0,
	}
}

// deepCAMReport is the whole-network DeepCAM estimate.
type deepCAMReport struct {
	EnergyPJ  float64
	LatencyNS float64
	Arrays    int
	// ApproxSigma is the modeled relative standard deviation of the
	// Hamming dot-product approximation at the final layer — the driver
	// of DeepCAM's accuracy loss on complex tasks.
	ApproxSigma float64
}

// analyzeDeepCAM estimates DeepCAM's cost on the network.
func analyzeDeepCAM(net *Network, par deepCAMParams) deepCAMReport {
	var rep deepCAMReport
	shapes := net.OutShapes(1)
	weights := 0
	depth := 0
	for i := range net.Layers {
		l := &net.Layers[i]
		if l.Kind != model.KindConv && l.Kind != model.KindLinear {
			continue
		}
		depth++
		weights += l.W.Elems()
		p := shapes[i].H * shapes[i].W
		outs := float64(p) * float64(l.W.Cout)
		// One hash-length CAM search per output (all rows matched in
		// parallel) and one match-line timing readout per output; readouts
		// serialize through the time-to-digital converters.
		rep.EnergyPJ += outs*float64(par.HashLen)*par.SearchPJPerBit + outs*par.PeriphPJPerOut
		rep.LatencyNS += outs * par.MatchNSPerSearch
		// Hash signatures of activations move between layers.
		rep.EnergyPJ += float64(p) * float64(par.HashLen) * par.MovePJBit * 0.02
	}
	// Signature storage sets the array count (~1.25 signature bits per
	// weight after hashing).
	rep.Arrays = (weights*5/4 + par.ArrayRows*par.ArrayCols - 1) / (par.ArrayRows * par.ArrayCols)
	// Relative error of an L-bit random-projection dot product is
	// ~1/sqrt(L) per layer and compounds with depth (§V-A: accuracy of
	// complex tasks "is more sensitive to approximation").
	rep.ApproxSigma = math.Sqrt(float64(depth)) / math.Sqrt(float64(par.HashLen))
	return rep
}

// forwardHash runs the integer forward pass with DeepCAM's approximation
// injected: every conv partial sum is perturbed with zero-mean noise of
// standard deviation |sum|·/√HashLen (the Johnson–Lindenstrauss error of
// the Hamming-distance dot-product estimate), deterministically seeded.
func forwardHash(net *Network, in *FloatTensor, par deepCAMParams, seed uint64) (*model.IntTrace, error) {
	rng := rand.New(rand.NewPCG(seed, 0xdeebca3))
	sigma := 1 / math.Sqrt(float64(par.HashLen))
	return net.ForwardIntQuantized(in, func(x *tensor.Int, l *model.Layer) *tensor.Int {
		out := tensor.ConvIntTernarySparse(x, l.W.W, l.ConvSpec())
		// Scale of a typical partial sum for noise injection.
		var meanAbs float64
		for _, v := range out.Data {
			meanAbs += math.Abs(float64(v))
		}
		if len(out.Data) > 0 {
			meanAbs /= float64(len(out.Data))
		}
		for i, v := range out.Data {
			noise := rng.NormFloat64() * sigma * (0.5*math.Abs(float64(v)) + 0.5*meanAbs)
			out.Data[i] = v + int32(math.RoundToEven(noise))
		}
		return out
	})
}

// forwarderFor builds the system-specific execution path for agreement
// measurements; nil means the exact RTM-AP/software-integer path.
type forwarderMaker func(net *Network, seed uint64) workload.Forwarder

func adcForwarder(net *Network, seed uint64) workload.Forwarder {
	par := xbar.Default()
	return func(in *FloatTensor) (*IntTensor, error) {
		tr, err := xbar.ForwardADC(net, in, par)
		if err != nil {
			return nil, err
		}
		return tr.Logits(), nil
	}
}

func hashForwarder(net *Network, seed uint64) workload.Forwarder {
	par := defaultDeepCAM()
	return func(in *FloatTensor) (*IntTensor, error) {
		tr, err := forwardHash(net, in, par, seed)
		if err != nil {
			return nil, err
		}
		return tr.Logits(), nil
	}
}

// fillAccuracy measures top-1 teacher agreement (FP = 100 by definition;
// the paper's accuracy deltas map onto agreement drops — see
// EXPERIMENTS.md).
func fillAccuracy(row *Table2Row, spec netSpec, sparsity float64, opt Table2Options,
	mk forwarderMaker) error {
	for _, bits := range []int{4, 8} {
		mc := model.Config{ActBits: bits, Sparsity: sparsity, Seed: opt.Seed}
		net := spec.accBuild(mc)
		cal := workload.Inputs(net.InputShape, opt.CalibSamples, opt.Seed+77)
		if err := model.Calibrate(net, cal); err != nil {
			return err
		}
		inputs := workload.Inputs(net.InputShape, opt.AccuracySamples, opt.Seed+123)
		ds, err := workload.Teacher(net, inputs)
		if err != nil {
			return err
		}
		fw := workload.IntReference(net)
		if mk != nil {
			fw = mk(net, opt.Seed)
		}
		agree, err := ds.Agreement(fw)
		if err != nil {
			return err
		}
		if bits == 4 {
			row.Acc4 = agree
		} else {
			row.Acc8 = agree
		}
	}
	row.AccFP = 100 // teacher self-agreement
	return nil
}
