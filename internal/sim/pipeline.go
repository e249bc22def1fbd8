package sim

import (
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
	// the pipelined-load model: with the weights resident in the arrays,
	// the next sample's input loading overlaps the current sample's
	// compute layer by layer, so each layer contributes
	// max(compute, load) rather than compute+load.
	MarginalNS float64
	// EnergyPJ is the per-sample energy of the stage's layers.
	EnergyPJ float64
	// Writes is the per-sample busiest-cell write count of the stage's
	// layers (LayerWrites summed in layer order): the wear the fleet
	// meters on the stage's device.
	Writes float64
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

// Batch prices a micro-batch of b samples traversing the stage: the first
// sample pays the stage fill and the outgoing transfer, each further
// sample the stage occupancy. b < 1 is treated as 1.
func (s StageReport) Batch(b int) BatchReport {
	return batch(s.FillNS+s.XferNS, s.OccupancyNS(), s.EnergyPJ+s.XferPJ, s.Writes, b, 1)
}

// PipelineReport prices a sharded plan as a software pipeline over the
// device fleet: each stage on its own device, micro-batches streaming
// through the stages. A one-stage pipeline is the whole model on one
// device.
type PipelineReport struct {
	// Shard is the layer partition the report prices.
	Shard  *core.ShardPlan
	Stages []StageReport
	// FillNS is the first sample's end-to-end latency: every stage fill
	// plus every inter-stage transfer. For one stage it equals the
	// analysis' TotalLatencyNS.
	FillNS float64
	// BottleneckNS is the largest stage occupancy — steady-state
	// throughput is one sample per BottleneckNS.
	BottleneckNS float64
	// PerSampleEnergyPJ is the per-sample energy including inter-stage
	// transfer energy (pipelining hides time, not switching activity).
	PerSampleEnergyPJ float64
	// PerSampleWrites is the stage writes summed in stage order.
	PerSampleWrites float64
}

// Batch prices b samples load-balanced across r device-disjoint replicas
// of the pipeline: each replica's share streams through it, filling once
// and then retiring one sample per bottleneck interval. b < 1 and r < 1
// are treated as 1.
func (p *PipelineReport) Batch(b, r int) BatchReport {
	return batch(p.FillNS, p.BottleneckNS, p.PerSampleEnergyPJ, p.PerSampleWrites, b, r)
}

// BatchReport is the simulated cost of b samples dispatched to a stage
// or a (replicated) pipeline — the serving layer's unit of work.
type BatchReport struct {
	Batch, Replicas int
	// FirstNS is the first sample's latency; MarginalNS is the
	// steady-state latency each further sample on the same replica adds.
	FirstNS    float64
	MarginalNS float64
	// LatencyNS is the completion time of the whole batch: the samples
	// split as evenly as possible across the replicas, which run
	// concurrently, so the batch finishes with the largest share:
	// FirstNS + (⌈Batch/Replicas⌉−1)·MarginalNS.
	LatencyNS float64
	// SteadyNS is the aggregate steady-state inter-sample interval,
	// MarginalNS/Replicas.
	SteadyNS float64
	// EnergyPJ and Writes scale with the sample count alone: pipelining
	// and replication buy time, never switching activity or wear.
	EnergyPJ float64
	Writes   float64
}

// InfersPerSec is the steady-state throughput, 1/SteadyNS.
func (b BatchReport) InfersPerSec() float64 {
	if b.SteadyNS <= 0 {
		return 0
	}
	return 1e9 / b.SteadyNS
}

// batch is the one batch formula behind StageReport.Batch and
// PipelineReport.Batch.
func batch(firstNS, marginalNS, energyPJ, writes float64, b, r int) BatchReport {
	b, r = max(b, 1), max(r, 1)
	return BatchReport{
		Batch:      b,
		Replicas:   r,
		FirstNS:    firstNS,
		MarginalNS: marginalNS,
		LatencyNS:  firstNS + float64((b+r-1)/r-1)*marginalNS,
		SteadyNS:   marginalNS / float64(r),
		EnergyPJ:   float64(b) * energyPJ,
		Writes:     float64(b) * writes,
	}
}

// AnalyzePipeline partitions c into (up to) k contiguous stages balanced
// on rep's per-layer LatencyNS (core.Partition: k < 1 is treated as 1 and
// k clamps to the layer count) and prices the result from the
// single-device analysis: per-stage fill and marginal latencies,
// inter-stage activation transfer cost from the movement model, per-stage
// wear, and the steady-state bottleneck. Every sum runs in Analyze's
// layer order, so a one-stage pipeline prices bit-for-bit as rep does:
// FillNS is rep.TotalLatencyNS and PerSampleEnergyPJ is rep.Total's.
func AnalyzePipeline(c *core.Compiled, rep *Report, k int) (*PipelineReport, error) {
	costs := make([]float64, len(rep.Layers))
	for i, lr := range rep.Layers {
		costs[i] = lr.LatencyNS
	}
	sp, err := core.Partition(c, k, costs)
	if err != nil {
		return nil, err
	}
	writes := LayerWrites(c)
	p := c.Cfg.Par
	pr := &PipelineReport{Shard: sp}
	for si, st := range sp.Stages {
		sr := StageReport{Lo: st.Lo, Hi: st.Hi}
		var spent energy.Breakdown
		for i, lr := range rep.Layers[st.Lo:st.Hi] {
			sr.FillNS += lr.LatencyNS
			busy := lr.ComputeNS + lr.ReduceNS + lr.RequantNS
			sr.MarginalNS += max(busy, lr.LoadNS)
			spent.Add(lr.Energy)
			sr.Writes += writes[st.Lo+i]
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
		pr.PerSampleWrites += sr.Writes
		pr.BottleneckNS = max(pr.BottleneckNS, sr.OccupancyNS())
	}
	return pr, nil
}
