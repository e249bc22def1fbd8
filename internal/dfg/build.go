package dfg

import (
	"fmt"
	"sort"

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

// lincomb is a sorted sum of distinct signed variables.
type lincomb []term

func (lc lincomb) sort() { sort.Slice(lc, func(i, j int) bool { return lc[i].v < lc[j].v }) }

// pairKey canonicalizes an unordered signed pair up to global negation:
// the smaller variable comes first with a positive sign; flip reports
// whether the canonical pair is the negation of the original.
type pairKey struct {
	v1, v2 int
	s2     bool // sign of second term relative to positive first term
}

func canonPair(a, b term) (pairKey, bool) {
	if a.v > b.v {
		a, b = b, a
	}
	if !a.neg {
		return pairKey{a.v, b.v, b.neg}, false
	}
	return pairKey{a.v, b.v, !b.neg}, true
}

// Build constructs the DFG of one weight slice (the Cout × Fh·Fw ternary
// matrix convolved on a single input channel).
func Build(s ternary.Slice, opt Options) *Graph {
	if s.Cout <= 0 || s.K <= 0 {
		panic(fmt.Sprintf("dfg: empty slice %dx%d", s.Cout, s.K))
	}
	// Rows as linear combinations over input variables.
	rows := make([]lincomb, s.Cout)
	for o := 0; o < s.Cout; o++ {
		for k := 0; k < s.K; k++ {
			switch s.At(o, k) {
			case 1:
				rows[o] = append(rows[o], term{v: k, neg: false})
			case -1:
				rows[o] = append(rows[o], term{v: k, neg: true})
			}
		}
	}

	var defs []lincomb // definitions of variables K, K+1, ...
	if opt.CSE {
		defs = extractPairs(rows, s.K, opt.MaxDefs)
	}
	return materialize(rows, defs, s.K, opt.CSE)
}

// extractPairs runs the greedy signed-pair extraction: while some signed
// pair of variables occurs (up to global negation) in at least two rows,
// define it as a new variable and substitute. This is the CSE step of
// §IV-A; on the paper's Equation (1) it finds exactly the x6/x7/x8
// decomposition (7 ops).
//
// The pair-occurrence counts are maintained incrementally: substituting a
// definition touches only the rows that contain the chosen pair, so only
// those rows' pair contributions are retracted and re-added, instead of
// recounting every row on every iteration. The greedy selection (highest
// count, ties broken toward the lexicographically smallest key) sees
// exactly the counts a full recount would produce, so the extraction
// order — and therefore the emitted DFG — is unchanged.
func extractPairs(rows []lincomb, nextVar int, maxDefs int) []lincomb {
	counts := make(map[pairKey]int)
	count := func(row lincomb, delta int) {
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				key, _ := canonPair(row[i], row[j])
				if c := counts[key] + delta; c > 0 {
					counts[key] = c
				} else {
					delete(counts, key)
				}
			}
		}
	}
	for _, row := range rows {
		count(row, 1)
	}

	var defs []lincomb
	for {
		if maxDefs > 0 && len(defs) >= maxDefs {
			return defs
		}
		best := pairKey{}
		bestCount := 1
		for k, c := range counts {
			if c > bestCount ||
				(c == bestCount && (k.v1 < best.v1 || (k.v1 == best.v1 && (k.v2 < best.v2 ||
					(k.v2 == best.v2 && !k.s2 && best.s2))))) {
				if c >= 2 {
					best, bestCount = k, c
				}
			}
		}
		if bestCount < 2 {
			return defs
		}

		// Define d = v1 + (±v2) and substitute ±d into every row that
		// contains the pair or its negation.
		def := lincomb{{v: best.v1, neg: false}, {v: best.v2, neg: best.s2}}
		dv := nextVar
		nextVar++
		defs = append(defs, def)

		for r, row := range rows {
			i1, i2 := -1, -1
			var flip bool
			for i := 0; i < len(row) && i2 == -1; i++ {
				for j := i + 1; j < len(row); j++ {
					key, fl := canonPair(row[i], row[j])
					if key == best {
						i1, i2, flip = i, j, fl
						break
					}
				}
			}
			if i2 == -1 {
				continue
			}
			count(row, -1)
			var nr lincomb
			for i, t := range row {
				if i != i1 && i != i2 {
					nr = append(nr, t)
				}
			}
			nr = append(nr, term{v: dv, neg: flip})
			nr.sort()
			rows[r] = nr
			count(nr, 1)
		}
	}
}

// materialize folds definitions and rows into DFG nodes. Rows fold their
// terms positive-first so leading negations are avoided; rows that are a
// single signed term become (negated) aliases, and all-negative rows
// compute the negated sum and set the output's Neg flag (free via the
// accumulate-with-subtract folding).
func materialize(rows []lincomb, defs []lincomb, k int, share bool) *Graph {
	g := &Graph{}
	varNode := make([]int, k+len(defs))
	for i := 0; i < k; i++ {
		g.Nodes = append(g.Nodes, Node{Kind: OpInput})
		g.Inputs = append(g.Inputs, i)
		varNode[i] = i
	}

	// Structural sharing (hash-consing) of identical subexpressions.
	memo := make(map[[3]int]int)
	mk := func(kind OpKind, a, b int) int {
		if kind == OpAdd && a > b {
			a, b = b, a // addition is commutative; canonicalize
		}
		key := [3]int{int(kind), a, b}
		if share {
			if id, ok := memo[key]; ok {
				return id
			}
		}
		g.Nodes = append(g.Nodes, Node{Kind: kind, A: a, B: b})
		id := len(g.Nodes) - 1
		if share {
			memo[key] = id
		}
		return id
	}

	// fold builds a node computing lc (or its negation, returned as flag).
	fold := func(lc lincomb) (int, bool) {
		pos := make([]int, 0, len(lc))
		neg := make([]int, 0, len(lc))
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
