package codegen

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
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

// Emitting a channel fragment and replaying it pass by pass (ap.Exec)
// must reproduce the DFG semantics accumulated over channels.
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
		vals := make([][]int64, len(tp.Prog.Cols))
		for virt, bind := range tp.InputBindings {
			ch, ki := bind[0], bind[1]
			if ch == 0 {
				vals[virt] = in1[ki]
			} else {
				vals[virt] = in2[ki]
			}
		}
		out, err := ap.Exec(tp.Prog, vals)
		if err != nil {
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
				acc := out[tp.AccVirt[o]][r]
				if acc != want1[o]+want2[o] {
					t.Fatalf("trial %d row %d out %d: acc %d, want %d",
						trial, r, o, acc, want1[o]+want2[o])
				}
			}
		}
	}
}

// The price read from a tile program must match the graphs and the
// layout it was emitted from, field by field.
func TestStatsAccounting(t *testing.T) {
	lay := testLayout(9, 4, 14, 8, 4)
	b, err := NewTileBuilder(lay)
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	for ch := 0; ch < 2; ch++ {
		g := buildGraph(t, uint64(5+ch), 8, 9, 0.5, ch == 0)
		if err := b.AddChannel(ch, g); err != nil {
			t.Fatal(err)
		}
		want.DFGOps += g.NumOps()
		for _, ref := range g.Outputs {
			if !ref.Zero {
				want.AccumOps++
			}
		}
		// §IV-C chains: an op whose left operand is a single-use op runs
		// in place on that operand's column; a chain's ops share its
		// widest annotated width.
		uses, last := g.UseCounts(nil), liveness(g, nil)
		chain := make([]int, len(g.Nodes))
		var width, size []int
		for i, nd := range g.Nodes {
			if (nd.Kind != dfg.OpAdd && nd.Kind != dfg.OpSub) || last[i] < 0 {
				continue
			}
			if a := g.Nodes[nd.A].Kind; (a == dfg.OpAdd || a == dfg.OpSub) && uses[nd.A] == 1 {
				chain[i] = chain[nd.A]
			} else {
				chain[i] = len(width)
				width, size = append(width, 0), append(size, 0)
			}
			width[chain[i]] = max(width[chain[i]], nd.Bits)
			size[chain[i]]++
		}
		for c, w := range width { // the chain's head runs out of place
			want.DFGBitsOut += w
			want.DFGBitsIn += (size[c] - 1) * w
			want.ShiftSteps += 3 * size[c] * w
		}
	}
	want.Clears = lay.TileSize
	want.ShiftSteps += 2*lay.AccWidth*want.AccumOps + 2*lay.K*lay.ActBits
	tp, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Stats != want {
		t.Errorf("stats %+v, want %+v", tp.Stats, want)
	}
	if want.DFGBitsIn == 0 || want.DFGBitsOut == 0 {
		t.Errorf("graphs exercise only one op form: %+v", want)
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
	ops, inPlace := 0, 0
	for _, in := range tp.Prog.Instrs {
		if in.Op != ap.OpClear && tp.Prog.Cols[in.Dst].Temp {
			ops++
			if in.InPlace {
				inPlace++
			}
		}
	}
	if ops < 10 {
		t.Skip("degenerate slice")
	}
	if float64(inPlace) < 0.5*float64(ops) {
		t.Errorf("in-place share %d/%d too low for chain-heavy DFGs", inPlace, ops)
	}
}

// The builder finds an operand's column through a reverse index kept
// beside the bindings. Two fresh builders fed the same fragments must emit
// the same tile, and each (channel, position) must own exactly one column,
// at its channel's domain slot on its position's physical column — a
// lookup that missed would mint a second one.
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
		!reflect.DeepEqual(a.AccVirt, b.AccVirt) || !reflect.DeepEqual(a.InputBindings, b.InputBindings) {
		t.Fatal("two builds of one tile differ")
	}
	lay := testLayout(k, 4, 16, cout, 2)
	seen := map[[2]int]bool{}
	for v, key := range a.InputBindings {
		if seen[key] {
			t.Errorf("channel %d position %d bound to two columns", key[0], key[1])
		}
		seen[key] = true
		// The column is the channel's domain slot of position k's
		// physical column, at the layout's activation format.
		ch, pos := key[0], key[1]
		want := ap.Col{Base: lay.InputBase + ch%lay.ChansPerPlane*lay.ActBits, Width: lay.ActBits, Unsigned: lay.ActUnsigned}
		if got := a.Prog.Cols[v]; got != want {
			t.Errorf("column %d bound to channel %d position %d is %+v, want %+v", v, ch, pos, got, want)
		}
		if got, want := a.Phys[v], lay.InputCols[ch/lay.ChansPerPlane][pos]; got != want {
			t.Errorf("column %d bound to channel %d position %d lives on physical column %d, want %d", v, ch, pos, got, want)
		}
	}
	if len(seen) == 0 {
		t.Fatal("tile binds no input column")
	}
}

// Parts cuts at channel boundaries into runs of whole fragments: at most
// one part per channel, each starting with the clears, balanced by op
// count, and memoized per count; a count of one, or a program of one
// channel, is the whole plan. Channels must arrive in resident order.
func TestParts(t *testing.T) {
	const k, cout = 9, 8
	build := func(chans int) *TileProgram {
		b, err := NewTileBuilder(testLayout(k, 4, 16, cout, 2))
		if err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < chans; ch++ {
			if err := b.AddChannel(ch, buildGraph(t, uint64(60+ch), cout, k, 0.3, true)); err != nil {
				t.Fatal(err)
			}
		}
		tp, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	tp := build(4)
	whole, err := tp.ExecPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.ChanAt) != 4 || tp.ChanAt[0] != cout {
		t.Fatalf("fragments start at %v; want 4 after %d clears", tp.ChanAt, cout)
	}
	for g := 0; g <= 6; g++ {
		parts, err := tp.Parts(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(1, min(g, 4)); len(parts) != want {
			t.Fatalf("Parts(%d): %d parts, want %d", g, len(parts), want)
		}
		if again, _ := tp.Parts(g); &again[0] != &parts[0] {
			t.Fatalf("Parts(%d) is not memoized", g)
		}
		if len(parts) == 1 {
			if parts[0].Plan != whole {
				t.Fatalf("Parts(%d) is not the whole plan", g)
			}
			continue
		}
		lo, most, least := cout, 0, len(tp.Prog.Instrs)
		for i, pt := range parts {
			if pt.Lo != lo || pt.Chan0 >= pt.Chan1 || pt.Lo != tp.ChanAt[pt.Chan0] || i > 0 && pt.Chan0 != parts[i-1].Chan1 {
				t.Fatalf("Parts(%d): part %d is %+v after instruction %d", g, i, pt, lo)
			}
			if pt.Plan.Ops() != cout+pt.Hi-pt.Lo {
				t.Fatalf("Parts(%d): part %d runs %d ops, want the clears and %d", g, i, pt.Plan.Ops(), pt.Hi-pt.Lo)
			}
			lo, most, least = pt.Hi, max(most, pt.Hi-pt.Lo), min(least, pt.Hi-pt.Lo)
		}
		if lo != len(tp.Prog.Instrs) || parts[len(parts)-1].Chan1 != 4 {
			t.Fatalf("Parts(%d) ends at instruction %d, channel %d", g, lo, parts[len(parts)-1].Chan1)
		}
		// Balanced: every part is within one fragment of an even share.
		frag := 0
		for c := range tp.ChanAt {
			end := len(tp.Prog.Instrs)
			if c+1 < len(tp.ChanAt) {
				end = tp.ChanAt[c+1]
			}
			frag = max(frag, end-tp.ChanAt[c])
		}
		if even := (len(tp.Prog.Instrs) - cout) / len(parts); most-even > frag || even-least > frag {
			t.Fatalf("Parts(%d): parts of %d to %d instructions against %d each, fragments up to %d", g, least, most, even, frag)
		}
	}
	if parts, _ := build(1).Parts(4); len(parts) != 1 {
		t.Fatalf("a one-channel program cut into %d parts", len(parts))
	}
	// Engines on several goroutines cut one shared program at once: each
	// count is cut once, and everyone gets that cut.
	shared := build(4)
	firsts := make([][]*Part, 8)
	var wg sync.WaitGroup
	for w := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 1; g <= 4; g++ {
				parts, err := shared.Parts(g)
				if err != nil {
					t.Error(err)
					return
				}
				firsts[w] = append(firsts[w], &parts[0])
			}
		}()
	}
	wg.Wait()
	for w := range firsts {
		if !slices.Equal(firsts[w], firsts[0]) {
			t.Fatalf("goroutine %d got another cut than goroutine 0", w)
		}
	}
	b, err := NewTileBuilder(testLayout(k, 4, 16, cout, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddChannel(1, buildGraph(t, 60, cout, k, 0.3, true)); err == nil {
		t.Fatal("channel 1 added before channel 0")
	}
}
