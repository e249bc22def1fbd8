package codegen

import (
	"fmt"
	"sort"

	"rtmap/internal/dfg"
)

// liveness computes, for every node of g, the index of its last consumer
// in node order. Outputs (and negated aliases) are consumed by the
// accumulation phase after all nodes, encoded as len(Nodes).
func liveness(g *dfg.Graph) []int {
	last := make([]int, len(g.Nodes))
	for i := range last {
		last[i] = -1
	}
	for i, nd := range g.Nodes {
		if nd.Kind == dfg.OpAdd || nd.Kind == dfg.OpSub {
			last[nd.A] = i
			last[nd.B] = i
		}
	}
	for _, ref := range g.Outputs {
		if !ref.Zero {
			last[ref.Node] = len(g.Nodes)
		}
	}
	return last
}

// columnPool hands out physical CAM columns. Its free list is a stack, so
// a returned column is reused before a fresh one is touched.
type columnPool struct {
	free  []int
	inUse map[int]bool
}

// newColumnPool returns a pool over the given physical column ids.
func newColumnPool(cols []int) *columnPool {
	p := &columnPool{inUse: make(map[int]bool)}
	p.free = append(p.free, cols...)
	// Deterministic allocation order: lowest id first.
	sort.Sort(sort.Reverse(sort.IntSlice(p.free)))
	return p
}

// get allocates a column.
func (p *columnPool) get() (int, error) {
	if len(p.free) == 0 {
		return 0, fmt.Errorf("codegen: column pool exhausted (%d in use)", len(p.inUse))
	}
	c := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[c] = true
	return c, nil
}

// put releases a column back to the pool.
func (p *columnPool) put(c int) {
	if !p.inUse[c] {
		panic(fmt.Sprintf("codegen: releasing column %d that is not in use", c))
	}
	delete(p.inUse, c)
	p.free = append(p.free, c)
}
