package dfg

import "fmt"

// OpKind enumerates DFG node kinds.
type OpKind uint8

const (
	// OpInput is one element of the Fh·Fw im2col patch (a CAM column).
	OpInput OpKind = iota
	// OpAdd computes A + B.
	OpAdd
	// OpSub computes A − B.
	OpSub
)

func (k OpKind) String() string {
	switch k {
	case OpInput:
		return "input"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Node is one DFG vertex. Lo/Hi/Bits are filled by AnnotateWidths.
type Node struct {
	Kind OpKind
	A, B int // operand node ids (unused for OpInput)

	Lo, Hi int64 // inclusive value interval
	Bits   int   // minimum two's-complement width for [Lo, Hi]
	// Unsigned marks inputs whose codes are non-negative; their stored
	// width can omit the sign bit (activation codes after ReLU).
	Unsigned bool
}

// OutRef binds one output row of the weight slice to a DFG node. Neg marks
// negated aliases (y = −node), which cost nothing: the negation folds into
// the accumulation phase by accumulating with subtraction instead of
// addition (§IV-C "negative output" LUTs). Zero marks all-zero rows.
type OutRef struct {
	Node int
	Neg  bool
	Zero bool
}

// Graph is the DFG of one weight-slice MVM: Cout linear combinations of
// the K = Fh·Fw patch inputs.
type Graph struct {
	Nodes   []Node
	Inputs  []int // node ids of the K patch inputs, in patch order
	Outputs []OutRef
}

// NumOps returns the number of add/sub nodes (the paper's "#Adds/Subs"
// metric counts these, in MVM convention: building each output expression,
// with negated aliases free).
func (g *Graph) NumOps() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == OpAdd || nd.Kind == OpSub {
			n++
		}
	}
	return n
}

// Validate checks topological ordering and operand validity.
func (g *Graph) Validate() error {
	for i, nd := range g.Nodes {
		switch nd.Kind {
		case OpInput:
		case OpAdd, OpSub:
			if nd.A < 0 || nd.A >= i || nd.B < 0 || nd.B >= i {
				return fmt.Errorf("dfg: node %d operands (%d,%d) not topologically earlier", i, nd.A, nd.B)
			}
		default:
			return fmt.Errorf("dfg: node %d has unknown kind %v", i, nd.Kind)
		}
	}
	for k, in := range g.Inputs {
		if in < 0 || in >= len(g.Nodes) || g.Nodes[in].Kind != OpInput {
			return fmt.Errorf("dfg: input %d maps to invalid node %d", k, in)
		}
	}
	for o, ref := range g.Outputs {
		if ref.Zero {
			continue
		}
		if ref.Node < 0 || ref.Node >= len(g.Nodes) {
			return fmt.Errorf("dfg: output %d references invalid node %d", o, ref.Node)
		}
	}
	return nil
}

// UseCounts returns, per node, how many times it is consumed (by other
// nodes or as an output; negated aliases count as uses), in buf's storage
// when it has room.
func (g *Graph) UseCounts(buf []int) []int {
	uses := resize(buf, len(g.Nodes))
	for _, nd := range g.Nodes {
		if nd.Kind == OpAdd || nd.Kind == OpSub {
			uses[nd.A]++
			uses[nd.B]++
		}
	}
	for _, ref := range g.Outputs {
		if !ref.Zero {
			uses[ref.Node]++
		}
	}
	return uses
}

// resize returns n zeros, in buf's storage when it has room.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Eval evaluates the graph on one input vector (length = len(Inputs)) and
// returns the output values. It is the semantic oracle used by tests and
// by the functional simulator's cross-checks.
func (g *Graph) Eval(inputs []int64) []int64 {
	if len(inputs) != len(g.Inputs) {
		panic(fmt.Sprintf("dfg: got %d inputs, want %d", len(inputs), len(g.Inputs)))
	}
	vals := make([]int64, len(g.Nodes))
	inputOf := make(map[int]int, len(g.Inputs))
	for k, id := range g.Inputs {
		inputOf[id] = k
	}
	for i, nd := range g.Nodes {
		switch nd.Kind {
		case OpInput:
			vals[i] = inputs[inputOf[i]]
		case OpAdd:
			vals[i] = vals[nd.A] + vals[nd.B]
		case OpSub:
			vals[i] = vals[nd.A] - vals[nd.B]
		}
	}
	out := make([]int64, len(g.Outputs))
	for o, ref := range g.Outputs {
		if ref.Zero {
			continue
		}
		v := vals[ref.Node]
		if ref.Neg {
			v = -v
		}
		out[o] = v
	}
	return out
}

// AnnotateWidths computes per-node value intervals and minimum signed
// bitwidths, assuming every input lies in [inLo, inHi] (for b-bit unsigned
// activation codes: [0, 2^b−1]). Interval arithmetic is exact for this
// graph family, so the widths are sound: no AP instruction emitted at its
// annotated width can overflow.
func (g *Graph) AnnotateWidths(inLo, inHi int64) {
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		switch nd.Kind {
		case OpInput:
			nd.Lo, nd.Hi = inLo, inHi
			nd.Unsigned = inLo >= 0
		case OpAdd:
			nd.Lo = g.Nodes[nd.A].Lo + g.Nodes[nd.B].Lo
			nd.Hi = g.Nodes[nd.A].Hi + g.Nodes[nd.B].Hi
		case OpSub:
			nd.Lo = g.Nodes[nd.A].Lo - g.Nodes[nd.B].Hi
			nd.Hi = g.Nodes[nd.A].Hi - g.Nodes[nd.B].Lo
		}
		nd.Bits = SignedBits(nd.Lo, nd.Hi)
	}
}

// SignedBits returns the minimum two's-complement width holding every
// value in [lo, hi].
func SignedBits(lo, hi int64) int {
	bits := 1
	for ; bits < 63; bits++ {
		min := -(int64(1) << uint(bits-1))
		max := int64(1)<<uint(bits-1) - 1
		if lo >= min && hi <= max {
			return bits
		}
	}
	return 63
}

// MaxBits returns the largest annotated node width (the partial-sum width
// of the slice).
func (g *Graph) MaxBits() int {
	m := 1
	for _, nd := range g.Nodes {
		if nd.Bits > m {
			m = nd.Bits
		}
	}
	return m
}
