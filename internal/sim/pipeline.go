package sim

import (
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/energy"
)

// StageReport prices one pipeline stage of a sharded plan.
type StageReport struct {
	// Lo, Hi is the stage's layer range [Lo, Hi).
	Lo, Hi int
	// FillNS is the first-sample latency through the stage (the sum of
	// its layers' full latencies).
	FillNS float64
	// MarginalNS is the stage's steady-state per-sample busy time under
	// the pipelined-load model (each layer contributes max(compute, load),
	// exactly as in AnalyzeBatch).
	MarginalNS float64
	// EnergyPJ is the per-sample energy of the stage's layers.
	EnergyPJ float64
	// XferBits/XferNS/XferPJ price shipping the outgoing boundary
	// activations to the next stage's device on the movement model. Zero
	// for the last stage.
	XferBits int64
	XferNS   float64
	XferPJ   float64
}

// OccupancyNS is the stage's steady-state cadence: per-sample compute
// plus shipping its boundary activations out. The slowest stage's
// occupancy is the pipeline's bottleneck — its steady-state inter-sample
// interval.
func (s StageReport) OccupancyNS() float64 { return s.MarginalNS + s.XferNS }

// PipelineReport prices a sharded plan as a software pipeline over the
// device fleet: each stage on its own device, micro-batches streaming
// through the stages.
type PipelineReport struct {
	Stages []StageReport
	// FillNS is the first sample's end-to-end latency: every stage fill
	// plus every inter-stage transfer.
	FillNS float64
	// BottleneckNS is the largest stage occupancy — steady-state
	// throughput is one sample per BottleneckNS.
	BottleneckNS float64
	// PerSampleEnergyPJ is the per-sample energy including inter-stage
	// transfer energy (pipelining hides time, not switching activity).
	PerSampleEnergyPJ float64
}

// SteadyInfersPerSec is the steady-state pipeline throughput.
func (p *PipelineReport) SteadyInfersPerSec() float64 {
	if p.BottleneckNS <= 0 {
		return 0
	}
	return 1e9 / p.BottleneckNS
}

// AnalyzePipeline prices a sharded batch pipeline from a single-device
// analysis: per-stage fill and marginal latencies, inter-stage activation
// transfer cost from the movement model, and the steady-state bottleneck.
// For a one-stage plan the result is AnalyzeBatch's pricing exactly:
// FillNS equals rep.TotalLatencyNS, BottleneckNS equals the batch
// model's MarginalNS (no transfers) and the energy is rep.Total's.
func AnalyzePipeline(c *core.Compiled, rep *Report, sp *core.ShardPlan) (*PipelineReport, error) {
	if len(rep.Layers) != len(c.Layers) {
		return nil, fmt.Errorf("sim: report covers %d layers, plan has %d", len(rep.Layers), len(c.Layers))
	}
	if len(sp.Stages) == 0 || sp.Stages[len(sp.Stages)-1].Hi != len(c.Layers) {
		return nil, fmt.Errorf("sim: shard plan does not cover the %d-layer network", len(c.Layers))
	}
	p := c.Cfg.Par
	pr := &PipelineReport{}
	for si, st := range sp.Stages {
		sr := StageReport{Lo: st.Lo, Hi: st.Hi}
		// Summed per component in Analyze's order, so a one-stage plan
		// prices bit-for-bit as AnalyzeBatch does, energy included.
		var spent energy.Breakdown
		for _, lr := range rep.Layers[st.Lo:st.Hi] {
			sr.FillNS += lr.LatencyNS
			busy := lr.ComputeNS + lr.ReduceNS + lr.RequantNS
			sr.MarginalNS += max(busy, lr.LoadNS)
			spent.Add(lr.Energy)
		}
		sr.EnergyPJ = spent.TotalPJ()
		if si < len(sp.Stages)-1 {
			sr.XferBits = st.XferBits
			sr.XferNS = float64(st.XferBits) * p.MoveNSPerBit
			sr.XferPJ = float64(st.XferBits) * p.MovePJPerBit
		}
		pr.Stages = append(pr.Stages, sr)
		pr.FillNS += sr.FillNS + sr.XferNS
		pr.PerSampleEnergyPJ += sr.EnergyPJ + sr.XferPJ
		if occ := sr.OccupancyNS(); occ > pr.BottleneckNS {
			pr.BottleneckNS = occ
		}
	}
	return pr, nil
}

// AnalyzeStageBatch prices a micro-batch of b samples traversing one
// stage of the pipeline, in the same pipelined-load convention as
// AnalyzeBatch: the first sample pays the stage fill, each further sample
// the stage marginal, and every sample pays the outgoing transfer.
func AnalyzeStageBatch(pr *PipelineReport, stage, b int) BatchReport {
	if b < 1 {
		b = 1
	}
	sr := pr.Stages[stage]
	br := BatchReport{
		Batch:      b,
		FirstNS:    sr.FillNS + sr.XferNS,
		MarginalNS: sr.OccupancyNS(),
	}
	br.LatencyNS = br.FirstNS + float64(b-1)*br.MarginalNS
	br.EnergyPJ = float64(b) * (sr.EnergyPJ + sr.XferPJ)
	return br
}

// AnalyzePipelineBatch prices a batch of b samples streamed through the
// whole pipeline: fill once, then one sample per bottleneck interval.
func AnalyzePipelineBatch(pr *PipelineReport, b int) BatchReport {
	if b < 1 {
		b = 1
	}
	br := BatchReport{
		Batch:      b,
		FirstNS:    pr.FillNS,
		MarginalNS: pr.BottleneckNS,
	}
	br.LatencyNS = br.FirstNS + float64(b-1)*br.MarginalNS
	br.EnergyPJ = float64(b) * pr.PerSampleEnergyPJ
	return br
}
