package dfg

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rtmap/internal/ternary"
)

// Options selects which optimizations Build applies, mirroring the two
// evaluated configurations of the paper: `unroll` (loop unrolling +
// constant weight folding + custom integer types) and `unroll+CSE` (all
// optimizations of Fig. 3a).
type Options struct {
	// CSE enables signed-pair common-subexpression elimination across the
	// weight slice, plus structural sharing of identical rows.
	CSE bool
	// MaxDefs caps the number of CSE definitions (0 = unlimited). The
	// compiler sets it from the temp-column budget: definitions stay live
	// across the whole slice evaluation, so each one occupies a CAM
	// column for the duration of the channel fragment.
	MaxDefs int
}

// term is one signed occurrence of a variable in a linear combination.
// Variables 0..K−1 are patch inputs; K.. are CSE definitions.
type term struct {
	v   int
	neg bool
}

// lincomb is a sum of distinct signed variables in ascending variable
// order.
type lincomb []term

// Build constructs the DFG of one weight slice (the Cout × Fh·Fw ternary
// matrix convolved on a single input channel).
func Build(s ternary.Slice, opt Options) *Graph {
	if s.Cout <= 0 || s.K <= 0 {
		panic(fmt.Sprintf("dfg: empty slice %dx%d", s.Cout, s.K))
	}
	if s.K == 1 {
		// Every row is the one input, its negation or zero: what
		// materialize makes of single-term rows, with no pair to share.
		g := &Graph{Nodes: []Node{{Kind: OpInput}}, Inputs: []int{0}, Outputs: make([]OutRef, s.Cout)}
		for o, w := range s.M {
			g.Outputs[o] = OutRef{Neg: w < 0, Zero: w == 0}
		}
		return g
	}
	rows := buildRows(s)
	var defs []lincomb // definitions of variables K, K+1, ...
	if opt.CSE {
		defs = extractPairs(rows, s.K, opt.MaxDefs)
	}
	return materialize(rows, defs, s.K, opt.CSE)
}

// buildRows returns the slice's rows as linear combinations over the
// input variables, all carved from one backing array; an all-zero row is
// nil.
func buildRows(s ternary.Slice) []lincomb {
	rows := make([]lincomb, s.Cout)
	terms := make([]term, 0, s.NNZ())
	for o := range rows {
		lo := len(terms)
		for k, w := range s.Row(o) {
			if w != 0 {
				terms = append(terms, term{v: k, neg: w < 0})
			}
		}
		if len(terms) > lo {
			rows[o] = terms[lo:len(terms):len(terms)]
		}
	}
	return rows
}

// extractPairs runs the greedy signed-pair extraction: while some signed
// pair of variables occurs (up to global negation) in at least two rows,
// define it as a new variable and substitute. This is the CSE step of
// §IV-A; on the paper's Equation (1) it finds exactly the x6/x7/x8
// decomposition (7 ops).
//
// A signed pair is canonical up to global negation: the smaller variable
// v1 comes first with a positive sign, and s2 is the sign of v2 relative
// to it. Each merge takes the pair of highest count, ties broken toward
// the smallest (v1, v2), then s2 = false; the definition is v1 ± v2,
// substituted with the sign of v1 in every row that holds the pair. Since
// a new variable is numbered above every other, a substituted row stays
// in ascending order with the definition last. The pairs structure keeps
// the counts, which rows hold each pair and a queue by count, so that a
// merge costs only the rows it rewrites.
func extractPairs(rows []lincomb, nextVar int, maxDefs int) []lincomb {
	x := pairsPool.Get().(*pairs)
	defer pairsPool.Put(x)
	x.reset(rows, nextVar)
	var defs []lincomb
	for maxDefs <= 0 || len(defs) < maxDefs {
		key, ok := x.popMax()
		if !ok {
			break
		}
		v1, v2, s2 := unpackPair(key)
		defs = append(defs, lincomb{{v: v1}, {v: v2, neg: s2}})
		x.substitute(rows, v1, v2, s2, nextVar)
		nextVar++
	}
	return defs
}

// pairSlot is one signed pair's entry in the pairs table: how many rows
// hold it, the head of its list of those rows (a link index, 0 for none;
// a row that loses the pair stays listed), and the stamp of the merge
// that last touched it. An entry stamped before the current slice's first
// stamp is left over from an earlier slice and reads as empty.
type pairSlot struct {
	count, head, stamp int32
}

// pairLink is one entry of a pair's row list.
type pairLink struct {
	row, next int32
}

// pairs holds the extraction's state. The table is indexed by variable
// pair: the slots of variable v and a smaller variable u are
// v(v−1) + 2u + s, so the table grows by one block per definition. The
// queue is a bucket per count, each a min-heap of packed (v1, v2, s2)
// keys, whose order is the tie-break; a key whose pair's count has since
// changed is stale and skipped when popped. A pairs is recycled through
// pairsPool, and the stamps spare clearing its table between slices.
type pairs struct {
	slots       []pairSlot
	links       []pairLink
	buckets     [][]uint64
	top         int   // no pair counts more than top
	base, stamp int32 // the current slice's first stamp, the current merge's
	touched     []uint64
}

var pairsPool = sync.Pool{New: func() any { return new(pairs) }}

// pairIndex is the table slot of the signed pair (v1 < v2, s2).
func pairIndex(v1, v2 int, s2 bool) int {
	i := v2*(v2-1) + 2*v1
	if s2 {
		i++
	}
	return i
}

// packPair packs a signed pair into a key whose integer order is the
// extraction's tie-break order.
func packPair(v1, v2 int, s2 bool) uint64 {
	k := uint64(v1)<<33 | uint64(v2)<<1
	if s2 {
		k |= 1
	}
	return k
}

func unpackPair(k uint64) (v1, v2 int, s2 bool) {
	return int(k >> 33), int(k>>1) & (1<<32 - 1), k&1 != 0
}

// reset starts a slice over variables 0..vars−1: it counts every pair of
// every row and queues the pairs held by at least two rows.
func (x *pairs) reset(rows []lincomb, vars int) {
	if x.stamp > math.MaxInt32/2 {
		clear(x.slots)
		x.stamp = 0
	}
	x.stamp++
	x.base = x.stamp
	x.grow(vars)
	x.links = append(x.links[:0], pairLink{})
	for c := range x.buckets {
		x.buckets[c] = x.buckets[c][:0]
	}
	x.top = 0
	for r, row := range rows {
		for i, a := range row {
			for _, b := range row[i+1:] {
				x.add(r, pairIndex(a.v, b.v, a.neg != b.neg))
			}
		}
	}
	for v2 := 1; v2 < vars; v2++ {
		for v1 := 0; v1 < v2; v1++ {
			for _, s2 := range [2]bool{false, true} {
				x.queue(packPair(v1, v2, s2), int(x.slot(pairIndex(v1, v2, s2)).count))
			}
		}
	}
}

// grow makes room for the pairs among variables 0..vars−1.
func (x *pairs) grow(vars int) {
	if n := vars * (vars - 1); n > len(x.slots) {
		x.slots = slices.Grow(x.slots, n-len(x.slots))[:n]
	}
}

// slot returns the table entry at i, emptied first if an earlier slice
// left it.
func (x *pairs) slot(i int) *pairSlot {
	s := &x.slots[i]
	if s.stamp < x.base {
		*s = pairSlot{stamp: x.base}
	}
	return s
}

// add counts one more row, r, holding the pair at slot i.
func (x *pairs) add(r, i int) *pairSlot {
	s := x.slot(i)
	s.count++
	x.links = append(x.links, pairLink{row: int32(r), next: s.head})
	s.head = int32(len(x.links) - 1)
	return s
}

// queue puts key in the bucket of count c, if it is a candidate.
func (x *pairs) queue(key uint64, c int) {
	if c < 2 {
		return
	}
	for len(x.buckets) <= c {
		x.buckets = append(x.buckets, nil)
	}
	x.top = max(x.top, c)
	h := append(x.buckets[c], key)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	x.buckets[c] = h
}

// popMax removes and returns the smallest key among the pairs of the
// highest count, if that count is at least 2.
func (x *pairs) popMax() (uint64, bool) {
	for ; x.top >= 2; x.top-- {
		for h := x.buckets[x.top]; len(h) > 0; {
			key := h[0]
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for i := 0; ; {
				c := 2*i + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[i] <= h[c] {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
			x.buckets[x.top] = h
			v1, v2, s2 := unpackPair(key)
			if int(x.slot(pairIndex(v1, v2, s2)).count) == x.top {
				return key, true
			}
		}
	}
	return 0, false
}

// touch moves the count of the pair of terms a and b (distinct variables,
// either order) by one, up if row r gains the pair, and notes the pair
// for re-queueing.
func (x *pairs) touch(a, b term, up bool, r int) {
	if a.v > b.v {
		a, b = b, a
	}
	i := pairIndex(a.v, b.v, a.neg != b.neg)
	var s *pairSlot
	if up {
		s = x.add(r, i)
	} else {
		s = x.slot(i)
		s.count--
	}
	if s.stamp != x.stamp {
		s.stamp = x.stamp
		x.touched = append(x.touched, packPair(a.v, b.v, a.neg != b.neg))
	}
}

// substitute defines variable d = v1 ± v2 and rewrites every row holding
// the pair: it drops v1 and v2, appends ±d with the sign v1 had, and
// moves the counts of the pairs it breaks and makes.
func (x *pairs) substitute(rows []lincomb, v1, v2 int, s2 bool, d int) {
	x.stamp++
	x.touched = x.touched[:0]
	x.grow(d + 1)
	best := x.slot(pairIndex(v1, v2, s2))
	for l := best.head; l != 0; l = x.links[l].next {
		r := int(x.links[l].row)
		row := rows[r]
		i1, i2 := -1, -1
		for i, t := range row {
			switch t.v {
			case v1:
				i1 = i
			case v2:
				i2 = i
			}
		}
		if i1 < 0 || i2 < 0 || (row[i1].neg != row[i2].neg) != s2 {
			continue // the row lost the pair after it was listed
		}
		a, b := row[i1], row[i2]
		dt := term{v: d, neg: a.neg}
		out := row[:0]
		for i, t := range row {
			if i == i1 || i == i2 {
				continue
			}
			x.touch(t, a, false, r)
			x.touch(t, b, false, r)
			x.touch(t, dt, true, r)
			out = append(out, t)
		}
		rows[r] = append(out, dt)
		best.count--
	}
	best.head = 0
	for _, key := range x.touched {
		u, v, s := unpackPair(key)
		x.queue(key, int(x.slot(pairIndex(u, v, s)).count))
	}
}

// materialize folds definitions and rows into DFG nodes. Rows fold their
// terms positive-first so leading negations are avoided; rows that are a
// single signed term become (negated) aliases, and all-negative rows
// compute the negated sum and set the output's Neg flag (free via the
// accumulate-with-subtract folding).
func materialize(rows []lincomb, defs []lincomb, k int, share bool) *Graph {
	nodes := k + len(defs) // then at most one node per term of a row past its first
	for _, row := range rows {
		nodes += max(len(row)-1, 0)
	}
	g := &Graph{
		Nodes:   make([]Node, 0, nodes),
		Inputs:  make([]int, 0, k),
		Outputs: make([]OutRef, 0, len(rows)),
	}
	varNode := make([]int, k+len(defs))
	for i := 0; i < k; i++ {
		g.Nodes = append(g.Nodes, Node{Kind: OpInput})
		g.Inputs = append(g.Inputs, i)
		varNode[i] = i
	}

	// Structural sharing (hash-consing) of identical subexpressions.
	var memo map[[3]int]int
	mk := func(kind OpKind, a, b int) int {
		if kind == OpAdd && a > b {
			a, b = b, a // addition is commutative; canonicalize
		}
		key := [3]int{int(kind), a, b}
		if id, ok := memo[key]; ok {
			return id
		}
		g.Nodes = append(g.Nodes, Node{Kind: kind, A: a, B: b})
		id := len(g.Nodes) - 1
		if share {
			if memo == nil {
				memo = make(map[[3]int]int)
			}
			memo[key] = id
		}
		return id
	}

	// fold builds a node computing lc (or its negation, returned as flag).
	var pos, neg []int
	fold := func(lc lincomb) (int, bool) {
		pos, neg = pos[:0], neg[:0]
		for _, t := range lc {
			if t.neg {
				neg = append(neg, varNode[t.v])
			} else {
				pos = append(pos, varNode[t.v])
			}
		}
		if len(pos) == 0 {
			// All-negative: build the positive sum, flag negation.
			acc := neg[0]
			for _, n := range neg[1:] {
				acc = mk(OpAdd, acc, n)
			}
			return acc, true
		}
		acc := pos[0]
		for _, n := range pos[1:] {
			acc = mk(OpAdd, acc, n)
		}
		for _, n := range neg {
			acc = mk(OpSub, acc, n)
		}
		return acc, false
	}

	for i, def := range defs {
		// Definitions are canonical pairs: first term positive.
		id, negFlag := fold(def)
		if negFlag {
			panic("dfg: canonical definition folded negative")
		}
		varNode[k+i] = id
	}

	for _, row := range rows {
		if len(row) == 0 {
			g.Outputs = append(g.Outputs, OutRef{Zero: true})
			continue
		}
		if len(row) == 1 {
			g.Outputs = append(g.Outputs, OutRef{Node: varNode[row[0].v], Neg: row[0].neg})
			continue
		}
		id, negFlag := fold(row)
		g.Outputs = append(g.Outputs, OutRef{Node: id, Neg: negFlag})
	}
	return g
}

// NaiveAccumulateOps returns the operation count of the fully unrolled,
// constant-folded loop *before* expression building: one accumulate per
// nonzero weight (the convention under which the paper's Equation (1)
// "originally involves 19 operations" — Σnnz minus the first assignment).
func NaiveAccumulateOps(s ternary.Slice) int {
	nnz := s.NNZ()
	if nnz == 0 {
		return 0
	}
	return nnz - 1
}

// Equation1 returns the 6×6 ternary matrix of the paper's Equation (1),
// with the two sign typos of the printed matrix corrected so that the
// paper's own substitution is consistent (x7 = x3 − x5, x8 = x0 − x1,
// x6 = x7 + x8, y2 = −x7).
func Equation1() ternary.Slice {
	return ternary.Slice{Cout: 6, K: 6, M: []int8{
		1, -1, 0, 1, 0, -1,
		0, 0, -1, 1, 0, -1,
		0, 0, 0, -1, 0, 1,
		0, -1, 0, -1, 0, 1,
		1, -1, 0, -1, 0, 0,
		1, -1, -1, 1, 0, -1,
	}}
}
