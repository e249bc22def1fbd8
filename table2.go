package rtmap

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"rtmap/internal/core"
	"rtmap/internal/deepcam"
	"rtmap/internal/model"
	"rtmap/internal/report"
	"rtmap/internal/sim"
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
	oc, err := core.CountOps(net4, true, cfg.Cache)
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
	r := deepcam.Analyze(net4, deepcam.Default())
	return Table2Row{
		Network: spec.display, System: "DeepCAM",
		Sparsity: nan(),
		AccFP:    nan(), Acc4: nan(), Acc8: nan(),
		Energy4UJ: r.EnergyUJ(), Energy8UJ: nan(),
		Latency4MS: r.LatencyMS(), Latency8MS: nan(),
		Arrays:      r.Arrays,
		AddsUnrollK: nan(), AddsCSEK: nan(),
	}
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
	par := deepcam.Default()
	return func(in *FloatTensor) (*IntTensor, error) {
		tr, err := deepcam.ForwardHash(net, in, par, seed)
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
