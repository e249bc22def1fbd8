package dfg

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"rtmap/internal/ternary"
)

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

// sort puts lc in ascending variable order (insertion sort: rows are
// short, and the variables of a row are distinct).
func (lc lincomb) sort() {
	for i := 1; i < len(lc); i++ {
		for j := i; j > 0 && lc[j].v < lc[j-1].v; j-- {
			lc[j], lc[j-1] = lc[j-1], lc[j]
		}
	}
}

// referenceExtractPairs is the original full-recount implementation of the
// greedy signed-pair extraction, kept verbatim as a specification oracle:
// the shipping incremental-count version must choose the exact same
// definition sequence.
func referenceExtractPairs(rows []lincomb, nextVar int, maxDefs int) []lincomb {
	var defs []lincomb
	for {
		if maxDefs > 0 && len(defs) >= maxDefs {
			return defs
		}
		counts := make(map[pairKey]int)
		for _, row := range rows {
			for i := 0; i < len(row); i++ {
				for j := i + 1; j < len(row); j++ {
					key, _ := canonPair(row[i], row[j])
					counts[key]++
				}
			}
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
			var nr lincomb
			for i, t := range row {
				if i != i1 && i != i2 {
					nr = append(nr, t)
				}
			}
			nr = append(nr, term{v: dv, neg: flip})
			nr.sort()
			rows[r] = nr
		}
	}
}

// sliceRows duplicates Build's row construction for the oracle test.
func sliceRows(s ternary.Slice) []lincomb {
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
	return rows
}

func copyRows(rows []lincomb) []lincomb {
	out := make([]lincomb, len(rows))
	for i, r := range rows {
		out[i] = append(lincomb(nil), r...)
	}
	return out
}

// zooSliceShapes lists the (K, rows) of every weight slice the six zoo
// models build — each conv/linear layer's tiles, compiled at sparsity 0.8
// and 0.5 — with the largest CSE cap (Options.MaxDefs) the compiler set on
// it; halving that cap one to three times gives the caps of defShift 1–3.
var zooSliceShapes = []struct{ k, rows, maxDefs int }{
	{1, 4, 474}, {1, 8, 474}, {1, 10, 466}, {1, 125, 64}, {1, 128, 432},
	{1, 196, 64}, {1, 256, 376}, {1, 300, 64}, {1, 512, 256}, {1, 700, 64},
	{1, 804, 64}, {1, 875, 64}, {1, 1000, 68},
	{9, 4, 458}, {9, 6, 458}, {9, 8, 458}, {9, 64, 444}, {9, 80, 352},
	{9, 116, 160}, {9, 124, 160}, {9, 128, 378}, {9, 132, 160}, {9, 144, 352},
	{9, 164, 160}, {9, 252, 64}, {9, 256, 296}, {9, 348, 160}, {9, 492, 160},
	{9, 512, 150},
	{49, 64, 358},
}

// checkExtraction runs extractPairs and the reference on the rows of s
// and fails unless both make the same definitions and leave the same rows.
func checkExtraction(t *testing.T, name string, s ternary.Slice, maxDefs int) {
	t.Helper()
	rowsInc, rowsRef := buildRows(s), sliceRows(s)
	if !reflect.DeepEqual(rowsInc, rowsRef) {
		t.Fatalf("%s: Build's rows diverge from the slice\n got %v\nwant %v", name, rowsInc, rowsRef)
	}
	gotDefs := extractPairs(rowsInc, s.K, maxDefs)
	wantDefs := referenceExtractPairs(rowsRef, s.K, maxDefs)
	if !reflect.DeepEqual(gotDefs, wantDefs) {
		t.Fatalf("%s: defs diverge\n got %v\nwant %v", name, gotDefs, wantDefs)
	}
	if !reflect.DeepEqual(rowsInc, rowsRef) {
		t.Fatalf("%s: substituted rows diverge\n got %v\nwant %v", name, rowsInc, rowsRef)
	}
}

// TestExtractPairsMatchesReference holds the extraction to the full
// recount on random 3×3 slices and on every slice shape of the zoo, at
// four sparsities and the caps of defShift 0–3 and no cap. -short keeps
// the slices of at most 128 rows and 9 inputs.
func TestExtractPairsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 40; trial++ {
		cout := 8 + rng.IntN(56)
		sparsity := 0.3 + 0.6*rng.Float64()
		w := ternary.Random(rng, cout, 1, 3, 3, sparsity)
		maxDefs := 0
		if trial%3 == 1 {
			maxDefs = 1 + rng.IntN(8)
		}
		checkExtraction(t, fmt.Sprintf("trial %d (cout=%d sp=%.2f maxDefs=%d)", trial, cout, sparsity, maxDefs),
			w.Slice(0), maxDefs)
	}
	for _, sh := range zooSliceShapes {
		if testing.Short() && (sh.rows > 128 || sh.k > 9) {
			continue
		}
		fh := 1
		if sh.k > 1 {
			fh = int(math.Sqrt(float64(sh.k)))
		}
		for _, sparsity := range []float64{0, 0.5, 0.85, 0.95} {
			s := ternary.Random(rng, sh.rows, 1, fh, fh, sparsity).Slice(0)
			for _, maxDefs := range []int{sh.maxDefs, max(8, sh.maxDefs>>1), max(8, sh.maxDefs>>2), max(8, sh.maxDefs>>3), 0} {
				checkExtraction(t, fmt.Sprintf("%d×%d sp=%.2f maxDefs=%d", sh.rows, sh.k, sparsity, maxDefs), s, maxDefs)
			}
		}
	}
}
