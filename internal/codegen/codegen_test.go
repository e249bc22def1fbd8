package codegen

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"rtmap/internal/ap"
	"rtmap/internal/dfg"
	"rtmap/internal/ternary"
)

// testLayout builds a small layout for K patch inputs and T accumulators.
func testLayout(k, actBits, accW, tileSize, slots int) Layout {
	lay := Layout{
		K: k, ActBits: actBits, ActUnsigned: true,
		AccWidth: accW, TileSize: tileSize, AccSlots: slots,
		Planes: 1, ChansPerPlane: 4,
		CarryCol: 0,
	}
	next := 1
	cols := make([]int, k)
	for i := range cols {
		cols[i] = next
		next++
	}
	lay.InputCols = [][]int{cols}
	nAcc := (tileSize + slots - 1) / slots
	for i := 0; i < nAcc; i++ {
		lay.AccCols = append(lay.AccCols, next)
		next++
	}
	for i := 0; i < 24; i++ {
		lay.TempCols = append(lay.TempCols, next)
		next++
	}
	return lay
}

func buildGraph(t *testing.T, seed uint64, cout, k int, sparsity float64, cse bool) *dfg.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^55))
	w := ternary.Random(rng, cout, 1, 1, k, sparsity)
	g := dfg.Build(w.Slice(0), dfg.Options{CSE: cse})
	g.AnnotateWidths(0, 15)
	return g
}

// Emitting a channel fragment and executing it on the word machine must
// reproduce the DFG semantics accumulated over channels.
func TestEmitAndExecuteMatchesEval(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		k := 4 + trial%6
		cout := 3 + trial%8
		g1 := buildGraph(t, uint64(trial), cout, k, 0.4, trial%2 == 0)
		g2 := buildGraph(t, uint64(trial+100), cout, k, 0.6, trial%2 == 0)

		lay := testLayout(k, 4, 16, cout, 2)
		b, err := NewTileBuilder(lay)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddChannel(0, g1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddChannel(1, g2); err != nil {
			t.Fatal(err)
		}
		tp, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}

		rows := 5
		m, err := ap.NewWordMachine(tp.Prog, rows)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(trial), 0x77))
		in1 := make([][]int64, k)
		in2 := make([][]int64, k)
		for ki := 0; ki < k; ki++ {
			in1[ki] = make([]int64, rows)
			in2[ki] = make([]int64, rows)
			for r := 0; r < rows; r++ {
				in1[ki][r] = rng.Int64N(16)
				in2[ki][r] = rng.Int64N(16)
			}
		}
		for virt, bind := range tp.InputBindings {
			ch, ki := bind[0], bind[1]
			if ch == 0 {
				m.SetColumn(virt, in1[ki])
			} else {
				m.SetColumn(virt, in2[ki])
			}
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			x1 := make([]int64, k)
			x2 := make([]int64, k)
			for ki := 0; ki < k; ki++ {
				x1[ki] = in1[ki][r]
				x2[ki] = in2[ki][r]
			}
			want1 := g1.Eval(x1)
			want2 := g2.Eval(x2)
			for o := 0; o < cout; o++ {
				acc := m.Column(tp.AccVirt[o])[r]
				if acc != want1[o]+want2[o] {
					t.Fatalf("trial %d row %d out %d: acc %d, want %d",
						trial, r, o, acc, want1[o]+want2[o])
				}
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := buildGraph(t, 5, 8, 9, 0.5, true)
	lay := testLayout(9, 4, 14, 8, 4)
	b, err := NewTileBuilder(lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddChannel(0, g); err != nil {
		t.Fatal(err)
	}
	tp, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	st := tp.Stats
	if st.DFGOps != g.NumOps() {
		t.Errorf("DFG ops %d, want %d (graph op count)", st.DFGOps, g.NumOps())
	}
	nonZero := 0
	for _, ref := range g.Outputs {
		if !ref.Zero {
			nonZero++
		}
	}
	if st.AccumOps != nonZero {
		t.Errorf("accumulates %d, want %d (nonzero rows)", st.AccumOps, nonZero)
	}
	if st.Clears != 8 {
		t.Errorf("clears %d, want 8 (one per accumulator)", st.Clears)
	}
	if st.DFGBitsIn+st.DFGBitsOut == 0 && g.NumOps() > 0 {
		t.Error("no DFG bits accounted")
	}
	if st.TempHighWater <= 0 && g.NumOps() > 0 {
		t.Error("no temp columns used")
	}
}

func TestDomainPackedAccumulators(t *testing.T) {
	// 8 accumulators in 2 columns (4 slots each): virtual columns must use
	// distinct domain bases per slot.
	g := buildGraph(t, 9, 8, 4, 0.3, false)
	lay := testLayout(4, 4, 10, 8, 4)
	b, err := NewTileBuilder(lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddChannel(0, g); err != nil {
		t.Fatal(err)
	}
	tp, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, v := range tp.AccVirt {
		key := [2]int{tp.Phys[v], tp.Prog.Cols[v].Base}
		if seen[key] {
			t.Fatalf("two accumulators share column %d domain %d", key[0], key[1])
		}
		seen[key] = true
	}
}

func TestChannelCapacityRejected(t *testing.T) {
	g := buildGraph(t, 11, 4, 4, 0.5, false)
	lay := testLayout(4, 4, 10, 4, 4) // capacity = 1 plane × 4 slots = 4
	b, err := NewTileBuilder(lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddChannel(4, g); err == nil {
		t.Error("channel index beyond capacity must fail")
	}
}

func TestInPlaceShareOfChains(t *testing.T) {
	// Long unshared rows (no CSE) produce chains that mostly run in place.
	g := buildGraph(t, 13, 6, 12, 0.1, false)
	lay := testLayout(12, 4, 16, 6, 2)
	b, err := NewTileBuilder(lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddChannel(0, g); err != nil {
		t.Fatal(err)
	}
	tp, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	st := tp.Stats
	if st.DFGOps < 10 {
		t.Skip("degenerate slice")
	}
	if float64(st.DFGInPlace) < 0.5*float64(st.DFGOps) {
		t.Errorf("in-place share %d/%d too low for chain-heavy DFGs", st.DFGInPlace, st.DFGOps)
	}
}

// The builder finds an operand's column through a reverse index kept
// beside the bindings. Two fresh builders fed the same fragments must emit
// the same tile, and each (channel, position) must own exactly the column
// named after it — a lookup that missed would mint a second one.
func TestInputColumnsUniqueAndRepeatable(t *testing.T) {
	const k, cout = 9, 8
	build := func() *TileProgram {
		b, err := NewTileBuilder(testLayout(k, 4, 16, cout, 2))
		if err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < 3; ch++ {
			if err := b.AddChannel(ch, buildGraph(t, uint64(40+ch), cout, k, 0.5, true)); err != nil {
				t.Fatal(err)
			}
		}
		tp, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Prog, b.Prog) || !reflect.DeepEqual(a.Phys, b.Phys) ||
		!reflect.DeepEqual(a.AccVirt, b.AccVirt) || !reflect.DeepEqual(a.Inputs(), b.Inputs()) {
		t.Fatal("two builds of one tile differ")
	}
	seen := map[[2]int]bool{}
	for _, in := range a.Inputs() {
		key := [2]int{in.Chan, in.K}
		if seen[key] {
			t.Errorf("channel %d position %d bound to two columns", in.Chan, in.K)
		}
		seen[key] = true
		if got, want := a.Prog.Cols[in.Virt].Name, fmt.Sprintf("x[ch%d][%d]", in.Chan, in.K); got != want {
			t.Errorf("column %d is %s, bound as %s", in.Virt, got, want)
		}
	}
	if len(seen) == 0 {
		t.Fatal("tile binds no input column")
	}
}
