package sim

import (
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// RunConv executes one compiled conv/linear layer functionally: every
// (strip, tile) program runs on the batched ExecPlan engine (exec.go)
// with a batch of one, strip partials are reduced, and the accumulated
// OFM (pre-requantization) is returned. Requires Config.KeepPrograms.
//
// The engine's ap.Machine is bit-exact with the pass-by-pass LUT replay
// of the CAM, ap.Exec (proved by the ap package's randomized equivalence
// test), so this output is exactly what the physical array would
// produce.
func RunConv(c *core.Compiled, layerIdx int, in *tensor.Int) (*tensor.Int, error) {
	if in.Shape.N != 1 {
		return nil, fmt.Errorf("sim: functional simulation runs batch 1, got %d", in.Shape.N)
	}
	outs, err := RunConvBatch(c, layerIdx, []*tensor.Int{in})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// ForwardAP runs the full network functionally with every conv/linear
// layer executed on the AP (RunConv) and all other layers on their exact
// integer semantics — the same fused requantization the hardware applies.
// The result must be bit-identical to model.ForwardInt; TestForwardAPExact
// asserts this on randomized networks.
func ForwardAP(c *core.Compiled, in *tensor.Float) (*model.IntTrace, error) {
	trs, err := ForwardAPBatch(c, []*tensor.Float{in})
	if err != nil {
		return nil, err
	}
	return trs[0], nil
}
