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
	// store is the trace the next stage's ExecLayers call runs against:
	// NewTrace's result before stage 0, afterwards a fresh trace holding
	// exactly the tensors the finished stage shipped. A one-stage run
	// therefore allocates what ForwardAPBatch does. The last stage's store
	// is kept: it holds the logits.
	store *model.IntTrace

	// trace accumulates every layer output when the run was created with
	// tracing on (ForwardAPSharded); nil otherwise.
	trace *model.IntTrace
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
	return &ShardRun{c: c, sp: sp, store: tr}, nil
}

// Done reports whether every stage has executed.
func (r *ShardRun) Done() bool { return r.stage >= len(r.sp.Stages) }

// Stage returns the index of the next stage to execute.
func (r *ShardRun) Stage() int { return r.stage }

// Logits returns the final layer output codes; nil until Done.
func (r *ShardRun) Logits() *tensor.Int {
	if !r.Done() {
		return nil
	}
	return r.store.Logits()
}

// Step executes the next stage of this run alone.
func (r *ShardRun) Step() error {
	if err := r.exec([]*model.IntTrace{r.store}, nil); err != nil {
		return err
	}
	r.ship()
	return nil
}

// StepBatch advances a set of runs positioned at the same stage of the
// same compiled plan by one stage on the batched AP engine: one program
// interpretation per (strip, tile, row-block) for all runs, bit-identical
// to stepping each run alone. hook observes each layer (nil: none). The
// returned slice has one entry per run; a batch-wide execution failure is
// attributed to every run it aborted (the runs are structurally
// identical, so it would have failed each of them alone too). Mismatched
// runs are stepped one by one, without the hook — mixed batches are a
// recovery corner, not an attribution target.
func StepBatch(runs []*ShardRun, hook LayerHook) []error {
	errs := make([]error, len(runs))
	if len(runs) == 0 {
		return errs
	}
	r0 := runs[0]
	trs := make([]*model.IntTrace, len(runs))
	for i, r := range runs {
		if r.c != r0.c || r.sp != r0.sp || r.stage != r0.stage {
			for i, r := range runs {
				errs[i] = r.Step()
			}
			return errs
		}
		trs[i] = r.store
	}
	err := r0.exec(trs, hook)
	for i, r := range runs {
		if errs[i] = err; err == nil {
			r.ship()
		}
	}
	return errs
}

// exec runs r's next stage over trs: the stores of r and of every run
// stepping with it.
func (r *ShardRun) exec(trs []*model.IntTrace, hook LayerHook) error {
	if r.Done() {
		return fmt.Errorf("sim: shard run already complete")
	}
	st := r.sp.Stages[r.stage]
	if err := r.c.Net.ExecLayers(trs, st.Lo, st.Hi, convExec(r.c), hook); err != nil {
		return fmt.Errorf("sim: stage %d [%d,%d): %w", r.stage, st.Lo, st.Hi, err)
	}
	return nil
}

// ship retires the executed stage: unless it was the last, the next
// stage's store receives exactly the boundary live set (XferRefs). A
// tensor the plan withholds stays nil there, and the walker's residency
// check fails the stage that reads it.
func (r *ShardRun) ship() {
	st, done := r.sp.Stages[r.stage], r.store
	if r.trace != nil {
		copy(r.trace.Outputs[st.Lo:st.Hi], done.Outputs[st.Lo:st.Hi])
		copy(r.trace.Scales[st.Lo:st.Hi], done.Scales[st.Lo:st.Hi])
	}
	r.stage++
	if r.Done() {
		return
	}
	n := len(done.Outputs)
	r.store = &model.IntTrace{Outputs: make([]*tensor.Int, n), Scales: make([]float64, n)}
	for _, ref := range st.XferRefs {
		if ref == model.InputRef {
			r.store.InputCodes = done.InputCodes
			continue
		}
		r.store.Outputs[ref], r.store.Scales[ref] = done.Outputs[ref], done.Scales[ref]
	}
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
		Outputs:    make([]*tensor.Int, len(c.Net.Layers)),
		Scales:     make([]float64, len(c.Net.Layers)),
		InputCodes: run.store.InputCodes,
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			return nil, err
		}
	}
	return run.trace, nil
}
