package dfg

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rtmap/internal/ternary"
)

func refMVM(s ternary.Slice, x []int64) []int64 {
	y := make([]int64, s.Cout)
	for o := 0; o < s.Cout; o++ {
		for k := 0; k < s.K; k++ {
			switch s.At(o, k) {
			case 1:
				y[o] += x[k]
			case -1:
				y[o] -= x[k]
			}
		}
	}
	return y
}

func TestEquation1CSE(t *testing.T) {
	s := Equation1()
	// The paper: "The MVM operation in Eq. 1 originally involves 19
	// operations and can be reduced to 7 when removing redundant
	// expressions."
	if got := NaiveAccumulateOps(s); got != 19 {
		t.Errorf("naive accumulate ops = %d, want 19 (paper's unoptimized count)", got)
	}
	g := Build(s, Options{CSE: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumOps(); got != 7 {
		t.Errorf("CSE ops = %d, want 7 (paper's optimized count)", got)
	}
	// y2 = −x7 must be realized as a free negated alias.
	st := g.Statistics()
	if st.NegAliases < 1 {
		t.Errorf("expected at least one negated alias output, got %d", st.NegAliases)
	}
	// Semantics preserved.
	rng := rand.New(rand.NewPCG(2024, 1))
	for trial := 0; trial < 50; trial++ {
		x := make([]int64, 6)
		for i := range x {
			x[i] = rng.Int64N(31)
		}
		want := refMVM(s, x)
		got := g.Eval(x)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("output %d: got %d, want %d (x=%v)", o, got[o], want[o], x)
			}
		}
	}
}

func TestEquation1UnrollCount(t *testing.T) {
	g := Build(Equation1(), Options{})
	// MVM convention without sharing: Σ max(nnz−1, 0) = 14.
	if got := g.NumOps(); got != 14 {
		t.Errorf("unroll ops = %d, want 14", got)
	}
}

func TestCSENeverWorseAndPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 60; trial++ {
		cout := 1 + rng.IntN(24)
		k := 1 + rng.IntN(12)
		sp := 0.3 + 0.6*rng.Float64()
		w := ternary.Random(rng, cout, 1, 1, k, sp)
		s := w.Slice(0)

		plain := Build(s, Options{})
		opt := Build(s, Options{CSE: true})
		if err := opt.Validate(); err != nil {
			t.Fatal(err)
		}
		if opt.NumOps() > plain.NumOps() {
			t.Fatalf("trial %d: CSE increased ops %d → %d", trial, plain.NumOps(), opt.NumOps())
		}
		for e := 0; e < 10; e++ {
			x := make([]int64, k)
			for i := range x {
				x[i] = rng.Int64N(255)
			}
			want := refMVM(s, x)
			gp, go_ := plain.Eval(x), opt.Eval(x)
			for o := range want {
				if gp[o] != want[o] || go_[o] != want[o] {
					t.Fatalf("trial %d: semantics broken at output %d", trial, o)
				}
			}
		}
	}
}

func TestCSEReductionOnRealisticSlices(t *testing.T) {
	// 3×3 slices with many output channels — the dominant shape in the
	// evaluated networks — must show a clear CSE reduction (paper: 31% on
	// average across networks).
	rng := rand.New(rand.NewPCG(11, 13))
	totPlain, totOpt := 0, 0
	for trial := 0; trial < 20; trial++ {
		w := ternary.Random(rng, 256, 1, 3, 3, 0.8)
		s := w.Slice(0)
		totPlain += Build(s, Options{}).NumOps()
		totOpt += Build(s, Options{CSE: true}).NumOps()
	}
	red := 1 - float64(totOpt)/float64(totPlain)
	if red < 0.15 {
		t.Errorf("CSE reduction %.1f%% too small for 256-channel 3×3 slices", red*100)
	}
}

func TestWidthAnnotationSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 40; trial++ {
		w := ternary.Random(rng, 8, 1, 3, 3, 0.5)
		s := w.Slice(0)
		g := Build(s, Options{CSE: true})
		bits := 4 + rng.IntN(5)
		hi := int64(1)<<uint(bits) - 1
		g.AnnotateWidths(0, hi)
		// Every node's annotated interval must contain its value on
		// random extreme-ish inputs, and the width must hold the interval.
		for e := 0; e < 20; e++ {
			x := make([]int64, s.K)
			for i := range x {
				switch rng.IntN(3) {
				case 0:
					x[i] = 0
				case 1:
					x[i] = hi
				default:
					x[i] = rng.Int64N(hi + 1)
				}
			}
			vals := make([]int64, len(g.Nodes))
			inputOf := make(map[int]int)
			for k, id := range g.Inputs {
				inputOf[id] = k
			}
			for i, nd := range g.Nodes {
				switch nd.Kind {
				case OpInput:
					vals[i] = x[inputOf[i]]
				case OpAdd:
					vals[i] = vals[nd.A] + vals[nd.B]
				case OpSub:
					vals[i] = vals[nd.A] - vals[nd.B]
				}
				if vals[i] < nd.Lo || vals[i] > nd.Hi {
					t.Fatalf("node %d value %d outside annotated [%d,%d]", i, vals[i], nd.Lo, nd.Hi)
				}
				min := -(int64(1) << uint(nd.Bits-1))
				max := int64(1)<<uint(nd.Bits-1) - 1
				if nd.Lo < min || nd.Hi > max {
					t.Fatalf("node %d interval [%d,%d] exceeds %d bits", i, nd.Lo, nd.Hi, nd.Bits)
				}
			}
		}
	}
}

func TestWidthTightForSingleAdd(t *testing.T) {
	// x0 + x1 with 4-bit unsigned inputs: range [0,30] → 6 signed bits.
	s := ternary.Slice{Cout: 1, K: 2, M: []int8{1, 1}}
	g := Build(s, Options{})
	g.AnnotateWidths(0, 15)
	if g.MaxBits() != 6 {
		t.Errorf("max bits %d, want 6", g.MaxBits())
	}
	// x0 − x1: range [−15,15] → 5 signed bits.
	s2 := ternary.Slice{Cout: 1, K: 2, M: []int8{1, -1}}
	g2 := Build(s2, Options{})
	g2.AnnotateWidths(0, 15)
	if g2.MaxBits() != 5 {
		t.Errorf("sub bits %d, want 5", g2.MaxBits())
	}
}

func TestZeroAndAliasRows(t *testing.T) {
	s := ternary.Slice{Cout: 4, K: 3, M: []int8{
		0, 0, 0, // zero row
		0, 1, 0, // alias of x1
		0, -1, 0, // negated alias
		1, 1, 0,
	}}
	g := Build(s, Options{CSE: true})
	if !g.Outputs[0].Zero {
		t.Error("row 0 must be zero")
	}
	if g.Outputs[1].Zero || g.Outputs[1].Neg {
		t.Error("row 1 must be a plain alias")
	}
	if !g.Outputs[2].Neg {
		t.Error("row 2 must be a negated alias")
	}
	if g.NumOps() != 1 {
		t.Errorf("ops = %d, want 1", g.NumOps())
	}
	out := g.Eval([]int64{5, 7, 9})
	want := []int64{0, 7, -7, 12}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

// TestOneInputSlices holds Build's K = 1 graphs to what materialize makes
// of the same rows, with and without CSE.
func TestOneInputSlices(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	for _, sp := range []float64{0, 0.5, 0.95} {
		s := ternary.Random(rng, 300, 1, 1, 1, sp).Slice(0)
		for _, cse := range []bool{false, true} {
			got := Build(s, Options{CSE: cse})
			want := materialize(buildRows(s), nil, 1, cse)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sparsity %.2f CSE %v: K = 1 graph differs from materialize's", sp, cse)
			}
		}
	}
}

func TestHashConsingSharesIdenticalRows(t *testing.T) {
	s := ternary.Slice{Cout: 2, K: 2, M: []int8{
		1, 1,
		1, 1, // identical filter
	}}
	g := Build(s, Options{CSE: true})
	if g.NumOps() != 1 {
		t.Errorf("identical rows should share one add, got %d ops", g.NumOps())
	}
	if g.Outputs[0].Node != g.Outputs[1].Node {
		t.Error("outputs must alias the same node")
	}
}

func TestQuickCSESemantics(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xcafe))
		w := ternary.Random(rng, 1+rng.IntN(10), 1, 1, 1+rng.IntN(9), rng.Float64())
		s := w.Slice(0)
		g := Build(s, Options{CSE: true})
		if g.Validate() != nil {
			return false
		}
		x := make([]int64, s.K)
		for i := range x {
			x[i] = rng.Int64N(1 << 10)
		}
		want := refMVM(s, x)
		got := g.Eval(x)
		for o := range want {
			if got[o] != want[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDotOutput(t *testing.T) {
	g := Build(Equation1(), Options{CSE: true})
	g.AnnotateWidths(0, 15)
	dot := g.Dot("eq1")
	for _, want := range []string{"digraph", "x0", "y5", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestStatisticsDepth(t *testing.T) {
	// Chain: ((x0+x1)+x2)+x3 → depth 3.
	s := ternary.Slice{Cout: 1, K: 4, M: []int8{1, 1, 1, 1}}
	g := Build(s, Options{})
	if d := g.Statistics().Depth; d != 3 {
		t.Errorf("depth %d, want 3", d)
	}
}
