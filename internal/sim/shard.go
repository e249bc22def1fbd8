package sim

import (
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// ShardRun is the stage-wise functional execution of one input through a
// sharded plan: the unit of work the serving pipeline streams from device
// to device. Each Step executes the next stage against a working store
// seeded ONLY with the tensors the previous stage shipped (the plan's
// XferRefs), so a completed run proves the partition's boundary transfer
// sets were sufficient — a missing tensor fails the step instead of
// silently reading state a real device would not hold.
type ShardRun struct {
	c  *core.Compiled
	sp *core.ShardPlan

	stage int
	// Boundary context carried between stages, keyed by producer layer
	// index (model.InputRef for the quantized network input).
	ctxT map[int]*tensor.Int
	ctxS map[int]float64

	// trace accumulates every layer output when the run was created with
	// tracing on (ForwardAPSharded); nil otherwise.
	trace  *model.IntTrace
	logits *tensor.Int
}

// NewShardRun quantizes the input and prepares a run positioned before
// stage 0.
func NewShardRun(c *core.Compiled, sp *core.ShardPlan, in *tensor.Float) (*ShardRun, error) {
	if len(sp.Stages) == 0 || sp.Stages[len(sp.Stages)-1].Hi != len(c.Layers) {
		return nil, fmt.Errorf("sim: shard plan does not cover the %d-layer network", len(c.Layers))
	}
	tr, err := c.Net.NewTrace(in)
	if err != nil {
		return nil, err
	}
	return &ShardRun{
		c: c, sp: sp,
		ctxT: map[int]*tensor.Int{model.InputRef: tr.InputCodes},
		ctxS: map[int]float64{model.InputRef: float64(c.Net.InputQ.Step)},
	}, nil
}

// Done reports whether every stage has executed.
func (r *ShardRun) Done() bool { return r.stage >= len(r.sp.Stages) }

// Stage returns the index of the next stage to execute.
func (r *ShardRun) Stage() int { return r.stage }

// Logits returns the final layer output codes; nil until Done.
func (r *ShardRun) Logits() *tensor.Int { return r.logits }

// Step executes the next stage: StepBatch on a batch of one.
func (r *ShardRun) Step(bitExact bool) error {
	return StepBatch([]*ShardRun{r}, bitExact)[0]
}

// StepBatch advances a set of runs positioned at the same stage of the
// same compiled plan by one stage. bitExact selects the batched AP engine
// for conv/linear layers (one program interpretation per (strip, tile,
// row-block) for all runs); false runs the (bit-identical) integer
// software reference. Results are bit-identical to stepping each run
// alone. The returned slice has one entry per run; a batch-wide
// execution failure is attributed to every run it aborted (the runs are
// structurally identical, so it would have failed each of them alone
// too). Mismatched runs are stepped one by one.
func StepBatch(runs []*ShardRun, bitExact bool) []error {
	return StepBatchHook(runs, bitExact, nil)
}

// StepBatchHook is StepBatch with a per-layer observation hook (nil
// behaves exactly like StepBatch). The non-uniform fallback path steps
// runs individually and drops the hook — mixed batches are a recovery
// corner, not an attribution target.
func StepBatchHook(runs []*ShardRun, bitExact bool, hook LayerHook) []error {
	errs := make([]error, len(runs))
	if len(runs) == 0 {
		return errs
	}
	r0 := runs[0]
	for _, r := range runs[1:] {
		if r.c != r0.c || r.sp != r0.sp || r.stage != r0.stage {
			for i, r := range runs {
				errs[i] = r.Step(bitExact)
			}
			return errs
		}
	}
	fail := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	if r0.Done() {
		return fail(fmt.Errorf("sim: shard run already complete"))
	}
	st := r0.sp.Stages[r0.stage]
	trs := make([]*model.IntTrace, len(runs))
	for i, r := range runs {
		trs[i] = r.buildStore()
	}
	if err := r0.c.Net.ExecLayers(trs, st.Lo, st.Hi, convExec(r0.c, bitExact), hook); err != nil {
		return fail(fmt.Errorf("sim: stage %d [%d,%d): %w", r0.stage, st.Lo, st.Hi, err))
	}
	for i, r := range runs {
		errs[i] = r.finishStage(trs[i])
	}
	return errs
}

// buildStore assembles the stage's working store, holding exactly the
// carried boundary tensors.
func (r *ShardRun) buildStore() *model.IntTrace {
	n := len(r.c.Net.Layers)
	tr := &model.IntTrace{
		Outputs: make([]*tensor.Int, n),
		Scales:  make([]float64, n),
	}
	for ref, t := range r.ctxT {
		if ref == model.InputRef {
			tr.InputCodes = t
		} else {
			tr.Outputs[ref] = t
			tr.Scales[ref] = r.ctxS[ref]
		}
	}
	return tr
}

// finishStage records the executed stage's results and ships the
// boundary live set to the next stage (or captures the logits on the
// last one).
func (r *ShardRun) finishStage(tr *model.IntTrace) error {
	st := r.sp.Stages[r.stage]
	n := len(r.c.Net.Layers)
	if r.trace != nil {
		if r.stage == 0 {
			r.trace.InputCodes = tr.InputCodes
		}
		for i := st.Lo; i < st.Hi; i++ {
			r.trace.Outputs[i] = tr.Outputs[i]
			r.trace.Scales[i] = tr.Scales[i]
		}
	}

	if r.stage == len(r.sp.Stages)-1 {
		r.logits = tr.Outputs[n-1]
		r.ctxT, r.ctxS = nil, nil
		r.stage++
		return nil
	}
	// Ship exactly the boundary live set to the next stage.
	nextT := make(map[int]*tensor.Int, len(st.XferRefs))
	nextS := make(map[int]float64, len(st.XferRefs))
	for _, ref := range st.XferRefs {
		if ref == model.InputRef {
			nextT[ref] = tr.InputCodes
			nextS[ref] = float64(r.c.Net.InputQ.Step)
			continue
		}
		t := tr.Outputs[ref]
		if t == nil {
			return fmt.Errorf("sim: stage %d boundary ref %d not produced", r.stage, ref)
		}
		nextT[ref] = t
		nextS[ref] = tr.Scales[ref]
	}
	r.ctxT, r.ctxS = nextT, nextS
	r.stage++
	return nil
}

// ForwardAPSharded replays the network stage by stage under the shard
// plan, each stage isolated to its boundary context, and returns the full
// integer trace. It must be bit-identical to ForwardAP for every plan —
// the sharding analogue of the paper's "retaining software accuracy"
// property.
func ForwardAPSharded(c *core.Compiled, sp *core.ShardPlan, in *tensor.Float) (*model.IntTrace, error) {
	run, err := NewShardRun(c, sp, in)
	if err != nil {
		return nil, err
	}
	run.trace = &model.IntTrace{
		Outputs: make([]*tensor.Int, len(c.Net.Layers)),
		Scales:  make([]float64, len(c.Net.Layers)),
	}
	for !run.Done() {
		if err := run.Step(true); err != nil {
			return nil, err
		}
	}
	return run.trace, nil
}
