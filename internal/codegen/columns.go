package codegen

import (
	"fmt"
	"sort"

	"rtmap/internal/dfg"
)

// liveness computes, for every node of g, the index of its last consumer
// in node order, in buf's storage when it has room. Outputs (and negated
// aliases) are consumed by the accumulation phase after all nodes,
// encoded as len(Nodes).
func liveness(g *dfg.Graph, buf []int) []int {
	last := fill(buf, len(g.Nodes), -1)
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

// fill returns n copies of v, in buf's storage when it has room.
func fill(buf []int, n, v int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// columnPool hands out physical CAM columns. Its free list is a stack, so
// a returned column is reused before a fresh one is touched.
type columnPool struct {
	free  []int
	inUse []bool // by physical column id
	used  int
}

// newColumnPool returns a pool over the given physical column ids.
func newColumnPool(cols []int) *columnPool {
	p := &columnPool{}
	p.free = append(p.free, cols...)
	// Deterministic allocation order: lowest id first.
	sort.Sort(sort.Reverse(sort.IntSlice(p.free)))
	if len(cols) > 0 {
		p.inUse = make([]bool, p.free[0]+1)
	}
	return p
}

// get allocates a column.
func (p *columnPool) get() (int, error) {
	if len(p.free) == 0 {
		return 0, fmt.Errorf("codegen: column pool exhausted (%d in use)", p.used)
	}
	c := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[c] = true
	p.used++
	return c, nil
}

// put releases a column back to the pool.
func (p *columnPool) put(c int) {
	if c < 0 || c >= len(p.inUse) || !p.inUse[c] {
		panic(fmt.Sprintf("codegen: releasing column %d that is not in use", c))
	}
	p.inUse[c] = false
	p.used--
	p.free = append(p.free, c)
}
