package rtmap

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rtmap/internal/report"
	"rtmap/internal/tensor"
	"rtmap/internal/workload"
)

// TestVerifyTinyNetworks is the end-to-end statement of the paper's
// correctness claim through the public API: compiled AP execution is
// bit-identical to the quantized software reference on every layer.
func TestVerifyTinyNetworks(t *testing.T) {
	for _, build := range []func(ModelConfig) *Network{BuildTinyCNN, BuildTinyResNet} {
		net := build(DefaultModelConfig())
		inputs := workload.Inputs(net.InputShape, 3, 11)
		if err := Verify(net, DefaultCompileConfig(), inputs); err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
	}
}

// testLedger computes the reproduction ledger once per test binary.
var testLedger = sync.OnceValues(func() (LedgerTable, error) { return Ledger(1, SharedCompileCache()) })

// ledgerRows returns the ledger by row ID, skipping under -short.
func ledgerRows(t *testing.T) map[string]report.LedgerRow {
	t.Helper()
	if testing.Short() {
		t.Skip("the ledger compiles the paper's networks at full size")
	}
	l, err := testLedger()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]report.LedgerRow{}
	for _, r := range l {
		if _, dup := rows[r.ID]; dup {
			t.Fatalf("ledger row %s appears twice", r.ID)
		}
		rows[r.ID] = r
	}
	return rows
}

// TestLedger holds the reproduction ledger (ledger.go), row by row: the
// reproduced value inside the row's test band, a cause on every gap and
// on no agreeing row, and the lifetime row following from the rewrite
// interval. The "Reproduction ledger" section of docs/ARCHITECTURE.md
// must equal the ledger's rendering, which pins every reproduced value
// as printed, the way CI compares the committed sweeps byte for byte.
func TestLedger(t *testing.T) {
	rows := ledgerRows(t)
	l, _ := testLedger()
	for _, r := range l {
		t.Run(r.ID, func(t *testing.T) {
			if r.Band != nil && !(r.Got >= r.Band[0] && r.Got <= r.Band[1]) {
				t.Errorf("%s = %g %s outside its band [%g, %g] (paper: %g)", r.Claim, r.Got, r.Unit, r.Band[0], r.Band[1], r.Paper)
			}
			switch {
			case !r.Agrees && r.Cause == "":
				t.Errorf("%s: %g %s against the paper's %g is a gap without a cause", r.Claim, r.Got, r.Unit, r.Paper)
			case r.Agrees && r.Cause != "":
				t.Errorf("%s: %g %s agrees with the paper's %g; drop its stale cause", r.Claim, r.Got, r.Unit, r.Paper)
			}
		})
	}
	life, rewrite := rows["endurance.lifetime"], rows["endurance.rewrite"]
	if want := DefaultParams().EnduranceCycles * rewrite.Got / (365.25 * 24 * 3600 * 1e9); math.Abs(life.Got/want-1) > 1e-12 {
		t.Errorf("lifetime %g years, want endurance × interval = %g", life.Got, want)
	}

	doc, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "\n## Reproduction ledger\n")
	if !found {
		t.Fatal("docs/ARCHITECTURE.md has no \"## Reproduction ledger\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	if want := l.Markdown(); !strings.Contains(section, want) {
		t.Errorf("docs/ARCHITECTURE.md's \"Reproduction ledger\" section does not hold the ledger; paste\n%s", want)
	}
}

// inBand asserts the ledger row id inside its test band and that band
// inside [lo, hi], so the row can neither leave its band nor have the
// band widened past what the test allows.
func inBand(t *testing.T, rows map[string]report.LedgerRow, id string, lo, hi float64) {
	t.Helper()
	r, ok := rows[id]
	switch {
	case !ok:
		t.Errorf("no ledger row %s", id)
	case r.Band == nil:
		t.Errorf("%s has no test band; want one inside [%g, %g]", id, lo, hi)
	case r.Band[0] < lo || r.Band[1] > hi:
		t.Errorf("%s band [%g, %g] is wider than [%g, %g]", id, r.Band[0], r.Band[1], lo, hi)
	case !(r.Got >= r.Band[0] && r.Got <= r.Band[1]):
		t.Errorf("%s = %g %s outside [%g, %g] (paper: %g)", r.Claim, r.Got, r.Unit, r.Band[0], r.Band[1], r.Paper)
	}
}

// TestResNet18HeadlineRatios holds the paper's headline on the 4-bit
// ResNet-18 rows: faster and lower energy than the crossbar baseline, a
// several-fold energy-efficiency gain, Table II's array count exactly,
// and absolute anchors within 2× of the paper's values.
func TestResNet18HeadlineRatios(t *testing.T) {
	rows := ledgerRows(t)
	inBand(t, rows, "resnet18.rtm.arrays", 49, 49)
	inBand(t, rows, "resnet18.gain.e4", 1.4, 3)
	inBand(t, rows, "resnet18.gain.l4", 2, 6)
	inBand(t, rows, "resnet18.gain.eff4", 3.5, math.Inf(1))
	inBand(t, rows, "resnet18.rtm.e4", 27, 110)
	inBand(t, rows, "resnet18.rtm.l4", 1.2, 5)
}

// TestMovementShares holds §V-C: RTM-AP moves far less data than the
// crossbar.
func TestMovementShares(t *testing.T) {
	rows := ledgerRows(t)
	inBand(t, rows, "movement.rtm", math.Inf(-1), 20)
	inBand(t, rows, "movement.xbar", 25, 55)
	inBand(t, rows, "movement.ratio", 2.5, math.Inf(1))
}

// TestCSEReductionBand holds §V-A: CSE removes a substantial share of the
// additions. Synthetic random ternary weights share somewhat more than
// trained ones, so the band is wide.
func TestCSEReductionBand(t *testing.T) {
	inBand(t, ledgerRows(t), "cse.average", 20, 75)
}

// TestEnduranceBand holds §V-C: a lifetime far beyond deployment
// horizons, from a positive rewrite interval.
func TestEnduranceBand(t *testing.T) {
	rows := ledgerRows(t)
	inBand(t, rows, "endurance.lifetime", 5, math.Inf(1))
	inBand(t, rows, "endurance.rewrite", math.SmallestNonzeroFloat64, math.Inf(1))
}

// TestEightBitScaling holds Table II's 4-bit → 8-bit trends on VGG-9:
// energy and latency both grow.
func TestEightBitScaling(t *testing.T) {
	rows := ledgerRows(t)
	inBand(t, rows, "vgg9.s85.e-growth", 1.1, 2.5)
	inBand(t, rows, "vgg9.s85.l-growth", 1.1, 3)
}

// TestAddsConventions holds the cause of the #Adds and CSE-average gaps:
// Table II's column counts CountOps (whole-Cout slice DFGs, no
// accumulation), the compiled artifact counts its tiled DFG ops plus one
// accumulate per DFG output, and the paper's ResNet-18 figures lie
// between the two. The causes quote the artifact's counts.
func TestAddsConventions(t *testing.T) {
	rows := ledgerRows(t)
	net := BuildResNet18(ModelConfig{ActBits: 4, Sparsity: 0.8, Seed: 1})
	oc, err := CountOps(net)
	if err != nil {
		t.Fatal(err)
	}
	var artifact, below, above [2]float64 // unroll, unroll+CSE
	for i, cse := range []bool{false, true} {
		cfg := DefaultCompileConfig()
		cfg.CSE = cse
		comp, err := Compile(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range comp.ConvPlans() {
			artifact[i] += float64(l.CG.DFGOps + l.CG.AccumOps)
		}
	}
	for i, id := range []string{"resnet18.adds.unroll", "resnet18.adds.cse"} {
		r, countOps := rows[id], float64([]int{oc.Unroll, oc.CSE}[i])/1e3
		if r.Got != countOps {
			t.Errorf("%s reads %g K, CountOps %g K", id, r.Got, countOps)
		}
		if !(countOps < r.Paper && r.Paper < artifact[i]/1e3) {
			t.Errorf("%s: paper %g K outside [CountOps %g K, artifact %g K]", id, r.Paper, countOps, artifact[i]/1e3)
		}
		below[i], above[i] = 100*(1-countOps/r.Paper), 100*(artifact[i]/1e3/r.Paper-1)
	}
	artifactCut := 100 * (1 - artifact[1]/artifact[0])
	for _, want := range []string{
		fmt.Sprintf("reads %.0f %% and %.0f %% below", below[0], below[1]),
		fmt.Sprintf("%.0f K → %.0f K (−%.0f %%), %.0f %% and %.0f %% above", artifact[0]/1e3, artifact[1]/1e3, artifactCut, above[0], above[1]),
	} {
		if !strings.Contains(causeAdds, want) {
			t.Errorf("the #Adds cause should quote %q", want)
		}
	}
	countOpsCut := 100 * (1 - float64(oc.CSE)/float64(oc.Unroll))
	if want := fmt.Sprintf("CountOps removes %.0f %% and the compiled artifact, accumulation included, %.0f %%", countOpsCut, artifactCut); !strings.Contains(causeCSEAverage, want) {
		t.Errorf("the CSE-average cause should quote %q", want)
	}
	if p := rows["cse.average"].Paper; !(artifactCut < p && p < countOpsCut) {
		t.Errorf("paper's CSE average %g %% outside [artifact %.1f %%, CountOps %.1f %%]", p, artifactCut, countOpsCut)
	}
}

// TestEnduranceConventions holds the cause of the rewrite-interval gap:
// the model's word-level accumulator writes space a cell's rewrites
// further apart than the paper's interval, and counting every
// bit-serial write of a DFG carry cell spaces them closer. A carry cell
// of a strip's arrays takes one expected write per LUT pass per operand
// bit (Table I: 4 passes in place, 5 out of place; a quarter of the rows
// tagged per pass) over every tile the array runs.
func TestEnduranceConventions(t *testing.T) {
	rows := ledgerRows(t)
	comp, err := Compile(BuildResNet18(DefaultModelConfig()), DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, l := range comp.ConvPlans() {
		writes := float64(4*l.CG.DFGBitsIn+5*l.CG.DFGBitsOut) / 4 / float64(l.Strips*max(1, l.OutGroups))
		worst = max(worst, writes)
	}
	carry := Analyze(comp).TotalLatencyNS / worst
	r := rows["endurance.rewrite"]
	if !(carry < r.Paper && r.Paper < r.Got) {
		t.Errorf("paper's rewrite interval %g ns outside [carry cell %.1f ns, accumulator cell %.0f ns]", r.Paper, carry, r.Got)
	}
	if want := fmt.Sprintf("every %.0f ns", carry); !strings.Contains(causeRewrite, want) {
		t.Errorf("the rewrite cause should quote the carry cell's %q", want)
	}
}

// TestMovementSplit holds what the RTM-AP data-movement cause reports:
// the share splits into activation traffic and the inter-strip
// partial-sum reduction, and neither part agrees with the paper's share.
func TestMovementSplit(t *testing.T) {
	rows := ledgerRows(t)
	comp, err := Compile(BuildResNet18(DefaultModelConfig()), DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, p := Analyze(comp), comp.Cfg.Par
	var act, reduce float64
	for _, l := range comp.Layers {
		act += float64(l.LoadMoveBits) * p.ActivationMoveFrac * p.MovePJPerBit
		reduce += float64(l.ReduceMoveBits) * p.MovePJPerBit
	}
	r := rows["movement.rtm"]
	act, reduce = 100*act/rep.Total.TotalPJ(), 100*reduce/rep.Total.TotalPJ()
	if math.Abs(act+reduce-r.Got) > 1e-9 {
		t.Errorf("activation %.3f %% + reduction %.3f %% != movement share %.3f %%", act, reduce, r.Got)
	}
	for _, part := range []float64{act, reduce} {
		if math.Abs(part/r.Paper-1) <= ledgerTolerance {
			t.Errorf("part %.1f %% agrees with the paper's %g %%; the cause says neither does", part, r.Paper)
		}
	}
	if want := fmt.Sprintf("activation traffic (%.1f %%) and the inter-strip partial-sum reduction (%.1f %%)", act, reduce); !strings.Contains(causeMovement, want) {
		t.Errorf("the movement cause should quote %q", want)
	}
}

func TestVGGArraysPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size compile")
	}
	net := BuildVGG11(ModelConfig{ActBits: 4, Sparsity: 0.85, Seed: 1})
	comp, err := Compile(net, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if comp.PoolArrays != 4 {
		t.Errorf("VGG-11 arrays %d, want 4 (Table II)", comp.PoolArrays)
	}
}

func TestCountOpsConsistency(t *testing.T) {
	net := BuildTinyCNN(DefaultModelConfig())
	oc, err := CountOps(net)
	if err != nil {
		t.Fatal(err)
	}
	if oc.CSE > oc.Unroll {
		t.Errorf("CSE ops %d exceed unroll ops %d", oc.CSE, oc.Unroll)
	}
	if len(oc.PerLayer) == 0 {
		t.Error("no per-layer counts")
	}
	sum := 0
	for _, pl := range oc.PerLayer {
		sum += pl[1]
	}
	if sum != oc.CSE {
		t.Errorf("per-layer CSE sum %d != total %d", sum, oc.CSE)
	}
}

func TestFigure4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-size compiles")
	}
	res, err := Figure4(DefaultFigure4Options())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Energy.Layers) != 20 {
		t.Fatalf("Fig. 4 has %d layers, want 20", len(res.Energy.Layers))
	}
	if len(res.Latency.Layers) != 20 {
		t.Fatalf("latency panel has %d layers, want 20", len(res.Latency.Layers))
	}
	// §V-B: the deepest layers are slower on RTM-AP than on the crossbar
	// (row under-utilization as Hout·Wout shrinks) while early layers are
	// much faster.
	last := res.Latency.Values[len(res.Latency.Values)-2] // a layer4 conv
	if last[2] <= last[0] {
		t.Errorf("deep layer: unroll+CSE %.3f ms should exceed NeuroSim %.3f ms", last[2], last[0])
	}
	first := res.Latency.Values[1]
	if first[2] >= first[0] {
		t.Errorf("early layer: unroll+CSE %.3f ms should beat NeuroSim %.3f ms", first[2], first[0])
	}
	// CSE strictly improves on unroll in total energy.
	var unroll, cse float64
	for i := range res.Energy.Layers {
		for c, v := range res.Energy.Values[i][1] {
			_ = c
			unroll += v
		}
		for _, v := range res.Energy.Values[i][2] {
			cse += v
		}
	}
	if cse >= unroll {
		t.Errorf("unroll+CSE energy %.1f should be below unroll %.1f", cse, unroll)
	}
	if math.IsNaN(cse) || math.IsNaN(unroll) {
		t.Error("NaN in figure data")
	}
}

// TestShardingPublicAPI exercises the pipeline-sharding surface end to
// end: a one-stage pipeline prices exactly as the single-device analysis,
// Partition is AnalyzePipeline's plan, and sharded functional replay
// stays bit-identical to RunFunctional.
func TestShardingPublicAPI(t *testing.T) {
	net := BuildTinyResNet(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(comp)

	prOne, err := AnalyzePipeline(comp, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, eight := prOne.Batch(1, 1), prOne.Batch(8, 1)
	if one.LatencyNS != rep.TotalLatencyNS || eight.EnergyPJ != 8*rep.Total.TotalPJ() {
		t.Errorf("K=1 pipeline prices %g ns / %g pJ for 8, analysis %g ns each / %g pJ for 8",
			one.LatencyNS, eight.EnergyPJ, rep.TotalLatencyNS, 8*rep.Total.TotalPJ())
	}

	sp, err := Partition(comp, rep, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 3 {
		t.Fatalf("%d stages, want 3", len(sp.Stages))
	}
	pr, err := AnalyzePipeline(comp, rep, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Shard, sp) {
		t.Errorf("Partition planned %+v, AnalyzePipeline priced %+v", sp.Stages, pr.Shard.Stages)
	}
	if pr.BottleneckNS <= 0 || pr.Batch(1, 1).InfersPerSec() <= 0 {
		t.Fatalf("degenerate pipeline report %+v", pr)
	}

	in := workload.Inputs(net.InputShape, 1, 5)[0]
	want, err := RunFunctional(comp, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFunctionalSharded(comp, sp, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Outputs {
		if !got.Outputs[i].Equal(want.Outputs[i]) {
			t.Fatalf("layer %d: sharded replay diverges from RunFunctional", i)
		}
	}
}

// Every functional entry validates the input against the network's
// CxHxW before quantizing it — the check ForwardInt always made — where
// an over-long tensor used to index past the input codes and a short one
// was silently zero-filled.
func TestRunFunctionalRejectsMisshapenInput(t *testing.T) {
	net := BuildTinyResNet(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Partition(comp, Analyze(comp), 2)
	if err != nil {
		t.Fatal(err)
	}
	good := workload.Inputs(net.InputShape, 1, 23)[0]
	is := net.InputShape
	shaped := func(c, h, w int) *FloatTensor {
		return tensor.NewFloat(tensor.Shape{N: 1, C: c, H: h, W: w})
	}
	for name, in := range map[string]*FloatTensor{
		"long":                             shaped(is.C, is.H+1, is.W),
		"short":                            shaped(is.C, is.H-1, is.W),
		"wrong C":                          shaped(is.C+1, is.H, is.W),
		"wrong W":                          shaped(is.C, is.H, is.W*2),
		"long data under the right shape":  {Shape: is, Data: append(append([]float32(nil), good.Data...), 0)},
		"short data under the right shape": {Shape: is, Data: good.Data[:len(good.Data)-1]},
	} {
		_, want := net.ForwardInt(in)
		if want == nil || !strings.Contains(want.Error(), "want CxHxW") {
			t.Fatalf("%s: ForwardInt: got %v, want an input-shape error", name, want)
		}
		for entry, run := range map[string]func() error{
			"RunFunctional":        func() error { _, err := RunFunctional(comp, in); return err },
			"RunFunctionalBatch":   func() error { _, err := RunFunctionalBatch(comp, []*FloatTensor{good, in}); return err },
			"RunFunctionalSharded": func() error { _, err := RunFunctionalSharded(comp, sp, in); return err },
		} {
			if err := run(); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s: got %v, want %v", name, entry, err, want)
			}
		}
	}
}

// TestRunFunctionalBatchPublicAPI states the execution engine's
// contract through the public API: RunFunctionalBatch is bit-identical
// per item to RunFunctional and to the software reference (ForwardInt).
func TestRunFunctionalBatchPublicAPI(t *testing.T) {
	net := BuildTinyResNet(DefaultModelConfig())
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := workload.Inputs(net.InputShape, 4, 19)
	trs, err := RunFunctionalBatch(comp, ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		serial, err := RunFunctional(comp, in)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := net.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		for l := range net.Layers {
			if !trs[i].Outputs[l].Equal(serial.Outputs[l]) {
				t.Fatalf("item %d layer %d: batch != serial", i, l)
			}
			if !trs[i].Outputs[l].Equal(ref.Outputs[l]) {
				t.Fatalf("item %d layer %d: batch != ForwardInt", i, l)
			}
		}
	}
}
