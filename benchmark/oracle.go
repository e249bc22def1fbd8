package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// reference is what the independent integer reference
// (model.Network.ForwardInt on a network built apart from the compiled
// one) says about one input: the logits, and a digest of every layer's
// output so a full-trace comparison does not have to keep the tensors.
type reference struct {
	logits []int32
	layers []uint64
}

// digests hashes every layer output of a trace (FNV-1a over the int32
// codes, one digest per layer).
func digests(tr *model.IntTrace) []uint64 {
	out := make([]uint64, len(tr.Outputs))
	for i, t := range tr.Outputs {
		h := uint64(14695981039346656037)
		if t != nil {
			for _, v := range t.Data {
				h = (h ^ uint64(uint32(v))) * 1099511628211
			}
		}
		out[i] = h
	}
	return out
}

// references runs the oracle over the inputs, GOMAXPROCS at a time
// (ForwardInt only reads the network).
func references(net *model.Network, inputs []*tensor.Float) ([]reference, error) {
	refs := make([]reference, len(inputs))
	errs := make([]error, len(inputs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			tr, err := net.ForwardInt(in)
			if err != nil {
				errs[i] = err
				return
			}
			refs[i] = reference{logits: slices.Clone(tr.Logits().Data), layers: digests(tr)}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle on input %d: %w", i, err)
		}
	}
	return refs, nil
}

func (r reference) matchLogits(got []int32) bool { return slices.Equal(r.logits, got) }

// matchTrace compares every layer of an engine trace with the oracle.
func (r reference) matchTrace(tr *model.IntTrace) bool {
	return tr != nil && slices.Equal(r.layers, digests(tr))
}

// checkFires proves the comparison rejects a single flipped logit (and
// accepts the untouched ones) before any result is trusted to it.
func (r reference) checkFires() bool {
	if len(r.logits) == 0 {
		return false
	}
	flipped := slices.Clone(r.logits)
	flipped[len(flipped)/2] ^= 1
	return r.matchLogits(r.logits) && !r.matchLogits(flipped)
}
