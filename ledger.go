package rtmap

import (
	"fmt"
	"math"

	"rtmap/internal/core"
	"rtmap/internal/dfg"
	"rtmap/internal/model"
	"rtmap/internal/report"
	"rtmap/internal/sim"
	"rtmap/internal/xbar"
)

// LedgerTable is the reproduction ledger: one row per number of the
// paper, beside the value this tree measures for it (see Ledger).
type LedgerTable = report.Ledger

// ledgerTolerance is the one relative deviation within which a measured
// row agrees with the paper. Integer counts agree only when equal.
const ledgerTolerance = 0.20

// Causes of the ledger's gaps. A cause is located when a test holds its
// mechanism, and unlocated otherwise, with a note of what was checked.
const (
	causeLatencyWidth = "Unlocated. RTM-AP latency barely grows with activation width here " +
		"(ResNet-18 ×1.07, VGG-9 ×1.13 from 4 to 8 bit), so the 4-bit ResNet-18 latency sits above " +
		"the paper's and the 8-bit one below it. Checked: the bit-serial DFG cycles do double from 4 to " +
		"8 bit, but the 8-bit mapping splits ResNet-18's layers 2–4 across more parallel strips or " +
		"output-tile groups, so its compute latency stays at 2.5–2.6 ms; which mapping the paper's " +
		"8-bit rows assume is not located."
	causeEnergyWidth = "Unlocated. RTM-AP energy grows ×1.67 from 4 to 8 bit on ResNet-18 here, " +
		"more than the paper's rows do, while the crossbar rows agree at both widths. Checked: the " +
		"bit-serial DFG phase (37 → 64 µJ) and data movement (7 → 15 µJ) carry the growth; the paper " +
		"states no per-width constant to compare them with."
	causeAdds = "Counting convention; the paper's own is unlocated. Table II's #Adds column here " +
		"is CountOps: the DFG adds of each channel's whole Cout slice, untiled, without " +
		"accumulation; it reads 24 % and 46 % below the paper's unroll and CSE figures. The " +
		"compiled artifact, tiled and with one accumulate per DFG output, counts " +
		"2335 K → 1771 K (−24 %), 56 % and 90 % above them. The paper's figures lie between " +
		"the two conventions (TestAddsConventions)."
	causeCSEAverage = "Unlocated. The reduction depends on the counting convention: on ResNet-18 " +
		"CountOps removes 56 % and the compiled artifact, accumulation included, 24 % " +
		"(TestAddsConventions); the paper's average lies between. Synthetic random ternary weights " +
		"may also share more signed pairs than trained ones; not checked."
	causeXbarArrays = "Unlocated. The crossbar model's #Arrays is the largest layer's tile count " +
		"under its array geometry; what the paper's count covers is not located. The energy and " +
		"latency of the same crossbar rows agree."
	causeVGGEnergy = "Unlocated. VGG-9 and VGG-11 energy comes out 6.6–7.9× below Table II while " +
		"ResNet-18 agrees on the same cost model, so the per-operation constants are not the cause. " +
		"Checked: AP energy scales with operations × active CAM rows, and a CIFAR-10 feature map " +
		"activates far fewer rows than an ImageNet one; here the VGG rows cost 4–7 % of ResNet-18's " +
		"energy, in the paper about a third. Whether the paper fills the rows of its CIFAR-10 runs " +
		"differently is not located."
	causeVGG9Latency = "Unlocated. VGG-11 latency agrees, VGG-9 comes out 30–43 % fast on the same " +
		"cost model and the same array count. Checked: bit-serial compute is 0.67 of the 0.71 ms; " +
		"load, reduction and requantization add the rest."
	causeMovement = "Unlocated. Checked: the RTM-AP share splits into activation traffic (1.7 %) " +
		"and the inter-strip partial-sum reduction (9.7 %) (TestMovementSplit); neither part alone " +
		"is the paper's share. The crossbar share agrees."
	causeMovementRatio = "Follows from the RTM-AP data-movement gap (movement.rtm); the crossbar " +
		"share agrees."
	causeRewrite = "Unlocated; the convention is bracketed (TestEnduranceConventions). The model " +
		"counts word-level writes of the busiest accumulator cell, one per tagged accumulate pass " +
		"plus one clear per tile. Counting every bit-serial LUT-pass write of a DFG carry cell " +
		"instead rewrites a cell every 26 ns. The paper's interval lies between the two."
	causeLifetime = "Follows from the rewrite interval (endurance.rewrite): the lifetime is the " +
		"cell's write endurance times the interval (TestLedger)."
)

// Ledger measures every number of the paper this tree reproduces — the
// Table II cells, the crossbar/RTM-AP ratios, Equation (1) and the §V
// claims — and returns each beside the paper's value, with a verdict and,
// for a gap, its cause. It is the only place a paper value is written
// down. The Table II rows come from one Table2 run with accuracy off; the
// §V rows from CountOps and from the ResNet-18 4-bit artifact and its
// analyses, compiled through the same cache. A non-nil cache memoizes the
// per-layer work; nil compiles uncached.
func Ledger(seed uint64, cache *CompileCache) (LedgerTable, error) {
	t2, err := Table2(Table2Options{Seed: seed, Cache: cache, NoCache: cache == nil})
	if err != nil {
		return nil, err
	}
	cells := map[string]Table2Row{}
	for _, r := range t2.Rows {
		cells[fmt.Sprintf("%s %s %.2f", r.Network, r.System, r.Sparsity)] = r
	}
	cell := func(network, system string, sparsity float64) Table2Row {
		return cells[fmt.Sprintf("%s %s %.2f", network, system, sparsity)]
	}
	const rtm, xb = "RTM-AP (unroll+CSE)", "DNN+NeuroSim"
	rn, rnX := cell("ResNet18/ImageNet", rtm, 0.8), cell("ResNet18/ImageNet", xb, nan())
	v9, v9s := cell("VGG-9/CIFAR10", rtm, 0.85), cell("VGG-9/CIFAR10", rtm, 0.9)
	v11, v11s := cell("VGG-11/CIFAR10", rtm, 0.85), cell("VGG-11/CIFAR10", rtm, 0.9)
	dc := cell("VGG-11/CIFAR10", "DeepCAM", nan())

	var cse float64
	for _, net := range []*Network{
		model.ResNet18(model.Config{ActBits: 4, Sparsity: 0.8, Seed: seed}),
		model.VGG9(model.Config{ActBits: 4, Sparsity: 0.85, Seed: seed}),
		model.VGG11(model.Config{ActBits: 4, Sparsity: 0.85, Seed: seed}),
	} {
		oc, err := core.CountOps(net, cache)
		if err != nil {
			return nil, err
		}
		cse += 1 - float64(oc.CSE)/float64(oc.Unroll)
	}
	cse /= 3

	net := model.ResNet18(model.Config{ActBits: 4, Sparsity: 0.8, Seed: seed})
	comp, err := core.Compile(net, CompileConfigWithCache(cache, cache == nil))
	if err != nil {
		return nil, err
	}
	rep := sim.Analyze(comp)
	end := sim.Endurance(comp, rep)
	xbRep := xbar.Analyze(net, xbar.Default(), 4)
	eq1 := dfg.Equation1()

	const t2s = "Table II"
	l := LedgerTable{
		{ID: "resnet18.rtm.e4", Source: t2s, Claim: "ResNet-18 RTM-AP energy, 4 bit", Unit: "µJ",
			Paper: 55.04, Got: rn.Energy4UJ, Band: []float64{27, 110}},
		{ID: "resnet18.rtm.e8", Source: t2s, Claim: "ResNet-18 RTM-AP energy, 8 bit", Unit: "µJ",
			Paper: 78.56, Got: rn.Energy8UJ, Cause: causeEnergyWidth},
		{ID: "resnet18.rtm.l4", Source: t2s, Claim: "ResNet-18 RTM-AP latency, 4 bit", Unit: "ms",
			Paper: 2.46, Got: rn.Latency4MS, Band: []float64{1.2, 5}, Cause: causeLatencyWidth},
		{ID: "resnet18.rtm.l8", Source: t2s, Claim: "ResNet-18 RTM-AP latency, 8 bit", Unit: "ms",
			Paper: 4.10, Got: rn.Latency8MS, Cause: causeLatencyWidth},
		{ID: "resnet18.rtm.arrays", Source: t2s, Claim: "ResNet-18 RTM-AP arrays", Unit: "arrays",
			Paper: 49, Got: float64(rn.Arrays), Count: true, Band: []float64{49, 49}},
		{ID: "resnet18.adds.unroll", Source: t2s, Claim: "ResNet-18 adds/subs, unroll", Unit: "K adds",
			Paper: 1499, Got: rn.AddsUnrollK, Count: true, Cause: causeAdds},
		{ID: "resnet18.adds.cse", Source: t2s, Claim: "ResNet-18 adds/subs, unroll+CSE", Unit: "K adds",
			Paper: 931, Got: rn.AddsCSEK, Count: true, Cause: causeAdds},
		{ID: "resnet18.xbar.e4", Source: t2s, Claim: "ResNet-18 DNN+NeuroSim energy, 4 bit", Unit: "µJ",
			Paper: 104.92, Got: rnX.Energy4UJ},
		{ID: "resnet18.xbar.e8", Source: t2s, Claim: "ResNet-18 DNN+NeuroSim energy, 8 bit", Unit: "µJ",
			Paper: 199.90, Got: rnX.Energy8UJ},
		{ID: "resnet18.xbar.l4", Source: t2s, Claim: "ResNet-18 DNN+NeuroSim latency, 4 bit", Unit: "ms",
			Paper: 9.56, Got: rnX.Latency4MS},
		{ID: "resnet18.xbar.l8", Source: t2s, Claim: "ResNet-18 DNN+NeuroSim latency, 8 bit", Unit: "ms",
			Paper: 12.2, Got: rnX.Latency8MS},
		{ID: "resnet18.xbar.arrays", Source: t2s, Claim: "ResNet-18 DNN+NeuroSim arrays", Unit: "arrays",
			Paper: 41, Got: float64(rnX.Arrays), Count: true, Cause: causeXbarArrays},
		{ID: "vgg9.s85.e4", Source: t2s, Claim: "VGG-9 RTM-AP energy, sparsity 0.85", Unit: "µJ",
			Paper: 22.80, Got: v9.Energy4UJ, Cause: causeVGGEnergy},
		{ID: "vgg9.s85.l4", Source: t2s, Claim: "VGG-9 RTM-AP latency, sparsity 0.85", Unit: "ms",
			Paper: 1.24, Got: v9.Latency4MS, Cause: causeVGG9Latency},
		{ID: "vgg9.s85.arrays", Source: t2s, Claim: "VGG-9 RTM-AP arrays", Unit: "arrays",
			Paper: 4, Got: float64(v9.Arrays), Count: true},
		{ID: "vgg9.s85.e-growth", Source: t2s, Claim: "VGG-9 RTM-AP energy growth, 4 → 8 bit", Unit: "×",
			Paper: 1.33, Got: v9.Energy8UJ / v9.Energy4UJ, Band: []float64{1.1, 2.5}},
		{ID: "vgg9.s85.l-growth", Source: t2s, Claim: "VGG-9 RTM-AP latency growth, 4 → 8 bit", Unit: "×",
			Paper: 1.73, Got: v9.Latency8MS / v9.Latency4MS, Band: []float64{1.1, 3}, Cause: causeLatencyWidth},
		{ID: "vgg9.s90.e4", Source: t2s, Claim: "VGG-9 RTM-AP energy, sparsity 0.9", Unit: "µJ",
			Paper: 16.13, Got: v9s.Energy4UJ, Cause: causeVGGEnergy},
		{ID: "vgg9.s90.l4", Source: t2s, Claim: "VGG-9 RTM-AP latency, sparsity 0.9", Unit: "ms",
			Paper: 0.71, Got: v9s.Latency4MS, Cause: causeVGG9Latency},
		{ID: "vgg11.s85.e4", Source: t2s, Claim: "VGG-11 RTM-AP energy, sparsity 0.85", Unit: "µJ",
			Paper: 24.83, Got: v11.Energy4UJ, Cause: causeVGGEnergy},
		{ID: "vgg11.s85.l4", Source: t2s, Claim: "VGG-11 RTM-AP latency, sparsity 0.85", Unit: "ms",
			Paper: 2.47, Got: v11.Latency4MS},
		{ID: "vgg11.s85.arrays", Source: t2s, Claim: "VGG-11 RTM-AP arrays", Unit: "arrays",
			Paper: 4, Got: float64(v11.Arrays), Count: true, Band: []float64{4, 4}},
		{ID: "vgg11.s90.e4", Source: t2s, Claim: "VGG-11 RTM-AP energy, sparsity 0.9", Unit: "µJ",
			Paper: 18.35, Got: v11s.Energy4UJ, Cause: causeVGGEnergy},
		{ID: "vgg11.s90.l4", Source: t2s, Claim: "VGG-11 RTM-AP latency, sparsity 0.9", Unit: "ms",
			Paper: 1.41, Got: v11s.Latency4MS},
		{ID: "vgg11.deepcam.e4", Source: t2s, Claim: "VGG-11 DeepCAM energy", Unit: "µJ",
			Paper: 0.49, Got: dc.Energy4UJ},
		{ID: "vgg11.deepcam.l4", Source: t2s, Claim: "VGG-11 DeepCAM latency", Unit: "ms",
			Paper: 0.87, Got: dc.Latency4MS},
		{ID: "vgg11.deepcam.arrays", Source: t2s, Claim: "VGG-11 DeepCAM arrays", Unit: "arrays",
			Paper: 24, Got: float64(dc.Arrays), Count: true},
	}
	byID := func(id string) report.LedgerRow {
		for _, r := range l {
			if r.ID == id {
				return r
			}
		}
		panic("rtmap: no ledger row " + id)
	}
	// ratio is a row whose paper and reproduced values are both the
	// quotient of two earlier rows.
	ratio := func(id, source, claim, num, den string, band []float64, cause string) report.LedgerRow {
		n, d := byID(num), byID(den)
		return report.LedgerRow{ID: id, Source: source, Claim: claim, Unit: "×",
			Paper: n.Paper / d.Paper, Got: n.Got / d.Got, Band: band, Cause: cause}
	}
	product := func(id, claim, a, b string, band []float64) report.LedgerRow {
		x, y := byID(a), byID(b)
		return report.LedgerRow{ID: id, Source: t2s, Claim: claim, Unit: "×",
			Paper: x.Paper * y.Paper, Got: x.Got * y.Got, Band: band}
	}
	l = append(l,
		ratio("resnet18.gain.e4", t2s, "ResNet-18 energy, crossbar ÷ RTM-AP, 4 bit",
			"resnet18.xbar.e4", "resnet18.rtm.e4", []float64{1.4, 3}, ""),
		ratio("resnet18.gain.l4", t2s, "ResNet-18 latency, crossbar ÷ RTM-AP, 4 bit",
			"resnet18.xbar.l4", "resnet18.rtm.l4", []float64{2, 6}, ""),
	)
	l = append(l,
		product("resnet18.gain.eff4", "ResNet-18 energy efficiency over the crossbar, 4 bit",
			"resnet18.gain.e4", "resnet18.gain.l4", []float64{3.5, 18}),
		ratio("resnet18.gain.e8", t2s, "ResNet-18 energy, crossbar ÷ RTM-AP, 8 bit",
			"resnet18.xbar.e8", "resnet18.rtm.e8", nil, causeEnergyWidth),
		ratio("resnet18.gain.l8", t2s, "ResNet-18 latency, crossbar ÷ RTM-AP, 8 bit",
			"resnet18.xbar.l8", "resnet18.rtm.l8", nil, causeLatencyWidth),
	)
	l = append(l, product("resnet18.gain.eff8", "ResNet-18 energy efficiency over the crossbar, 8 bit",
		"resnet18.gain.e8", "resnet18.gain.l8", nil))
	l = append(l,
		report.LedgerRow{ID: "headline.efficiency", Source: "§V", Claim: "energy efficiency over the crossbar (the 8-bit ResNet-18 rows)",
			Unit: "×", Paper: 7.5, Got: byID("resnet18.gain.eff8").Got},
		report.LedgerRow{ID: "eq1.naive", Source: "§IV-A, Eq. (1)", Claim: "Equation (1) MVM, one accumulate per nonzero weight",
			Unit: "ops", Paper: 19, Got: float64(dfg.NaiveAccumulateOps(eq1)), Count: true},
		report.LedgerRow{ID: "eq1.cse", Source: "§IV-A, Eq. (1)", Claim: "Equation (1) MVM after CSE",
			Unit: "ops", Paper: 7, Got: float64(dfg.Build(eq1, dfg.Options{CSE: true}).NumOps()), Count: true},
		report.LedgerRow{ID: "cse.average", Source: "§V-A", Claim: "adds/subs CSE removes, mean of the three networks",
			Unit: "%", Paper: 31, Got: cse * 100, Band: []float64{20, 75}, Cause: causeCSEAverage},
		report.LedgerRow{ID: "movement.rtm", Source: "§V-C", Claim: "ResNet-18 RTM-AP energy spent moving data",
			Unit: "%", Paper: 3, Got: 100 * rep.MovementShare(), Band: []float64{0, 20}, Cause: causeMovement},
		report.LedgerRow{ID: "movement.xbar", Source: "§V-C", Claim: "ResNet-18 crossbar energy spent moving data",
			Unit: "%", Paper: 41, Got: 100 * xbRep.MovementShare(), Band: []float64{25, 55}},
	)
	l = append(l,
		ratio("movement.ratio", "§V-C", "ResNet-18 data-movement share, crossbar ÷ RTM-AP",
			"movement.xbar", "movement.rtm", []float64{2.5, 100}, causeMovementRatio),
		report.LedgerRow{ID: "endurance.rewrite", Source: "§V-C", Claim: "ResNet-18 busiest cell's rewrite interval",
			Unit: "ns", Paper: 100, Got: end.MeanRewriteIntervalNS, Band: []float64{10, 1e5}, Cause: causeRewrite},
		report.LedgerRow{ID: "endurance.lifetime", Source: "§V-C", Claim: "device lifetime under continuous ResNet-18 inference",
			Unit: "years", Paper: 31, Got: end.LifetimeYears, Band: []float64{5, 1e5}, Cause: causeLifetime},
	)
	for i := range l {
		r := &l[i]
		if r.Count {
			r.Agrees = r.Got == r.Paper
		} else {
			r.Agrees = math.Abs(r.Got/r.Paper-1) <= ledgerTolerance
		}
	}
	return l, nil
}
