package core

import (
	"rtmap/internal/dfg"
	"rtmap/internal/model"
)

// OpCounts carries the Table II "#Adds/Subs" metrics of one network: the
// DFG add/sub count over full (untiled) weight slices, which is the
// compiler-level quantity the paper reports, for both evaluated
// configurations.
type OpCounts struct {
	Unroll int // loop unrolling + constant folding only
	CSE    int // all optimizations of Fig. 3a
	// PerLayer maps conv-layer plan order to (unroll, cse) pairs.
	PerLayer [][2]int
}

// CountOps computes the slice-DFG operation counts of every conv/linear
// layer without emitting programs (full Cout slices, no output tiling — the
// arithmetic-level metric of §IV-A; the executed, tiled counts live in
// LayerPlan.CG.DFGOps), building each layer's slices in parallel. A
// non-nil cache memoizes per-layer results keyed on the weight content, so
// repeated sweeps over one network are free.
func CountOps(net *model.Network, cache *Cache) (OpCounts, error) {
	if err := net.Validate(); err != nil {
		return OpCounts{}, err
	}
	workers := Config{Parallel: true}.workers()
	var oc OpCounts
	for i := range net.Layers {
		l := &net.Layers[i]
		if l.Kind != model.KindConv && l.Kind != model.KindLinear {
			continue
		}
		var v [2]int
		ok := false
		if cache != nil {
			v, ok = cache.getOps(opsKey(l))
		}
		if !ok {
			v = countLayerOps(l, workers)
			if cache != nil {
				cache.putOps(opsKey(l), v)
			}
		}
		oc.Unroll += v[0]
		oc.CSE += v[1]
		oc.PerLayer = append(oc.PerLayer, v)
	}
	return oc, nil
}

// countLayerOps builds the full-slice DFGs of one conv/linear layer under
// both compiler configurations and returns (unroll, cse) op counts.
func countLayerOps(l *model.Layer, workers int) [2]int {
	cin := l.W.Cin
	un := make([]int, cin)
	cs := make([]int, cin)
	parallelFor(cin, workers, func(c int) {
		s := l.W.Slice(c)
		un[c] = dfg.Build(s, dfg.Options{}).NumOps()
		cs[c] = dfg.Build(s, dfg.Options{CSE: true}).NumOps()
	})
	var v [2]int
	for c := 0; c < cin; c++ {
		v[0] += un[c]
		v[1] += cs[c]
	}
	return v
}
