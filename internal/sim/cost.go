package sim

import (
	"math"

	"rtmap/internal/core"
	"rtmap/internal/energy"
)

// Expected fraction of rows tagged (and therefore written) per LUT pass.
// Each pass of Table I matches one of the 2^3 row states; across random
// operand bits roughly a quarter of the rows take each of the four passes.
const tagFraction = 0.25

// LayerReport carries the per-layer cost results (one bar of Fig. 4).
type LayerReport struct {
	Plan *core.LayerPlan

	Energy    energy.Breakdown
	LatencyNS float64

	// Latency components (ns).
	ComputeNS float64
	ReduceNS  float64
	LoadNS    float64
	RequantNS float64
}

// Report aggregates a whole-network analysis.
type Report struct {
	Layers []LayerReport

	Total          energy.Breakdown
	TotalLatencyNS float64
}

// EnergyUJ returns total energy in microjoules (Table II units).
func (r *Report) EnergyUJ() float64 { return r.Total.TotalPJ() / 1e6 }

// LatencyMS returns total latency in milliseconds (Table II units).
func (r *Report) LatencyMS() float64 { return r.TotalLatencyNS / 1e6 }

// MovementShare returns the fraction of total energy spent moving data —
// the §V-C claim is ≈3% for RTM-AP vs 41% for the crossbar baseline.
func (r *Report) MovementShare() float64 {
	t := r.Total.TotalPJ()
	if t == 0 {
		return 0
	}
	return r.Total.MovementPJ / t
}

// ConvReports returns reports of conv/linear layers only (Fig. 4 axis).
func (r *Report) ConvReports() []LayerReport {
	var out []LayerReport
	for _, lr := range r.Layers {
		if lr.Plan.Class == core.ClassConv {
			out = append(out, lr)
		}
	}
	return out
}

// Analyze estimates energy and latency for every layer of the compiled
// network under the figures of merit in c.Cfg.Par. A conv layer is priced
// from plan.CG, the counts read from the tile programs the engine runs.
func Analyze(c *core.Compiled) *Report {
	rep := &Report{}
	for _, plan := range c.Layers {
		lr := analyzeLayer(c, plan)
		rep.Layers = append(rep.Layers, lr)
		rep.Total.Add(lr.Energy)
		rep.TotalLatencyNS += lr.LatencyNS
	}
	return rep
}

// Per-row-per-bit energy of one in-place LUT step: 4 passes, each a
// 3-column masked search plus a 2-column tagged write.
func inPlaceBitPJ(p energy.Params) float64 {
	return 4*3*p.SearchPJPerBit + 4*2*tagFraction*p.WritePJPerBit
}

// Out-of-place step: 5 passes of 3-column searches and 2-column writes,
// plus the fresh-destination clear write.
func outPlaceBitPJ(p energy.Params) float64 {
	return 5*3*p.SearchPJPerBit + 5*2*tagFraction*p.WritePJPerBit + p.WritePJPerBit
}

func analyzeLayer(c *core.Compiled, plan *core.LayerPlan) LayerReport {
	p := c.Cfg.Par
	lr := LayerReport{Plan: plan}
	rowsF := float64(plan.P)
	cIn := inPlaceBitPJ(p)
	cOut := outPlaceBitPJ(p)

	switch plan.Class {
	case core.ClassConv:
		cg := plan.CG
		// Channel-wise DFG phase (AP LUT passes; search-dominated).
		lr.Energy.DFGPJ = rowsF * (float64(cg.DFGBitsIn)*cIn + float64(cg.DFGBitsOut)*cOut)
		lr.Energy.DFGPJ += rowsF * float64(cg.DFGOps) * p.WritePJPerBit // carry clears
		// Accumulation phase: digital accumulation units at the AP
		// periphery (readout + narrow add), accumulator clears, and the
		// inter-strip adder tree.
		lr.Energy.AccumPJ = rowsF * (float64(cg.AccumOps+plan.ReduceOps)*p.AccumUnitPJ +
			float64(cg.AccumOps*plan.AccWidth+plan.ReduceBits)*p.AccumReadPJPerBit +
			float64(cg.Clears*plan.AccWidth)*p.WritePJPerBit)
		// Shifts (sequential bit access is RTM's cheap operation).
		lr.Energy.ShiftPJ = rowsF * float64(cg.ShiftSteps) * p.ShiftPJPerBit
		// Movement: boundary-crossing activations plus partial-result
		// reduction traffic (feature maps are computed in place).
		lr.Energy.MovementPJ = float64(plan.LoadMoveBits)*p.ActivationMoveFrac*p.MovePJPerBit +
			float64(plan.ReduceMoveBits)*p.MovePJPerBit
		// Peripherals: instruction issue/decode per participating array,
		// plus im2col staging writes.
		instrs := float64(cg.DFGOps + cg.AccumOps + cg.Clears + plan.ReduceOps)
		lr.Energy.PeripheralsPJ = instrs*float64(plan.RowGroups)*p.InstrOverheadPJ +
			float64(plan.LoadWriteBits)*p.WritePJPerBit

		// Latency: strips run in parallel (LoadRounds serialize inside
		// Strips/Replicas); row groups execute the same stream in lockstep.
		// Strips and output-tile groups run in parallel; LoadRounds
		// serialize inside Strips/Replicas, and ceil(Tiles/OutGroups)
		// sequential tile passes remain per group.
		og := max(1, plan.OutGroups)
		tilePasses := float64((plan.Tiles + og - 1) / og)
		par := float64(plan.Replicas) * float64(plan.Tiles) / tilePasses
		cycles := float64(cg.DFGBitsIn)*8 + float64(cg.DFGBitsOut)*11 +
			float64(cg.Clears*plan.AccWidth) + float64(cg.DFGOps) // carry clears
		lr.ComputeNS = cycles/par*p.CycleNS + float64(cg.ShiftSteps)/par*p.ShiftNS
		// Digital accumulates issue pipelined alongside the DFG stream.
		lr.ComputeNS += float64(cg.AccumOps) / par * p.AccumLatNS

		rowsPerArray := math.Min(float64(plan.P), float64(p.CAMRows))
		for _, ts := range plan.TileSizes {
			levels := math.Ceil(math.Log2(float64(plan.Replicas)))
			if plan.Replicas == 1 {
				levels = 0
			}
			perMerge := float64(ts) * (rowsPerArray*float64(plan.AccWidth)*p.MoveNSPerBit +
				float64(plan.AccWidth)*8*p.CycleNS)
			lr.ReduceNS += levels * perMerge
		}
		lr.LoadNS = float64(plan.LoadWriteBits) * p.MoveNSPerBit /
			float64(plan.RowGroups*plan.Replicas)

	case core.ClassQuant:
		lr.Energy.PeripheralsPJ = float64(plan.RequantElems) * p.RequantPJPerElem
		lr.RequantNS = p.RequantNSPerOp * float64(plan.OutC)

	case core.ClassAdd, core.ClassGAP:
		lr.Energy.DFGPJ = rowsF * float64(plan.ElemBits) * cIn
		lr.Energy.MovementPJ = float64(plan.LoadMoveBits) * p.ActivationMoveFrac * p.MovePJPerBit
		lr.Energy.PeripheralsPJ = float64(plan.LoadWriteBits)*p.WritePJPerBit +
			float64(plan.RequantElems)*p.RequantPJPerElem
		lr.ComputeNS = float64(plan.ElemBits) * 8 * p.CycleNS
		lr.LoadNS = float64(plan.LoadWriteBits) * p.MoveNSPerBit / float64(max(1, plan.RowGroups))
		lr.RequantNS = p.RequantNSPerOp * float64(plan.RequantElems) / math.Max(1, rowsF)

	case core.ClassPool:
		lr.Energy.DFGPJ = rowsF * float64(plan.PoolCmpBits) * cOut
		lr.Energy.MovementPJ = float64(plan.LoadMoveBits) * p.ActivationMoveFrac * p.MovePJPerBit
		lr.Energy.PeripheralsPJ = float64(plan.LoadWriteBits) * p.WritePJPerBit
		lr.ComputeNS = float64(plan.PoolCmpBits) * 10 * p.CycleNS
		lr.LoadNS = float64(plan.LoadWriteBits) * p.MoveNSPerBit / float64(max(1, plan.RowGroups))

	case core.ClassFree:
	}

	lr.LatencyNS = lr.ComputeNS + lr.ReduceNS + lr.LoadNS + lr.RequantNS
	return lr
}
