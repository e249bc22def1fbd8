package verify_test

import (
	"encoding/json"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rtmap/internal/ap"
	"rtmap/internal/codegen"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/verify"
)

func compileKept(t *testing.T, net *model.Network) *core.Compiled {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	comp, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatalf("compile %s: %v", net.Name, err)
	}
	return comp
}

// The acceptance bar of the verifier: every builtin model's plans are
// independently confirmed with zero diagnostics. A failure here means
// either the compiler emits an unsound plan or the verifier reports
// false positives — both ship-blockers.
func TestBuiltinModelPlansVerifyClean(t *testing.T) {
	nets := []*model.Network{
		model.TinyCNN(model.DefaultConfig()),
		model.TinyResNet(model.DefaultConfig()),
	}
	if !testing.Short() {
		nets = append(nets, model.MiniResNet18(model.DefaultConfig(), 16, 16))
	}
	for _, net := range nets {
		comp := compileKept(t, net)
		programs := 0
		for _, lp := range comp.Layers {
			for _, sp := range lp.StripPlans {
				programs += len(sp.Programs)
			}
		}
		if programs == 0 {
			t.Fatalf("%s: no tile programs retained; sweep is vacuous", net.Name)
		}
		if err := core.VerifyCompiled(comp); err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
	}
}

// Diagnostics are fully located and survive the error-wrapping path the
// serving layer relies on (errors.As to *verify.Error).
func TestCheckTileProgramDiagnostics(t *testing.T) {
	ref := verify.Ref{Model: "m", Layer: 3, LayerName: "conv2", Strip: 1, Tile: 2}
	diags := verify.CheckTileProgram(ref, &codegen.TileProgram{})
	if len(diags) != 1 || diags[0].Invariant != ap.InvProgram || diags[0].Op != -1 {
		t.Fatalf("nil program: %v", diags)
	}
	s := diags[0].String()
	for _, part := range []string{"model m", "layer 3", "conv2", "strip 1", "tile 2"} {
		if !strings.Contains(s, part) {
			t.Fatalf("diagnostic %q missing %q", s, part)
		}
	}

	// A structurally invalid program must fail the sweep, not execution.
	badProg := &ap.Program{
		Cols:   []ap.Col{{Name: "carry", Width: 1}, {Name: "c", Width: 4}},
		Instrs: []ap.Instr{{Op: ap.OpClear, Dst: 99, Width: 4}},
	}
	diags = verify.CheckTileProgram(ref, &codegen.TileProgram{Prog: badProg})
	if len(diags) != 1 || diags[0].Invariant != ap.InvProgram {
		t.Fatalf("invalid program: %v", diags)
	}

	verr := &verify.Error{Diags: diags}
	var wrapped error = verr
	var got *verify.Error
	if !errors.As(wrapped, &got) || len(got.Diags) != 1 {
		t.Fatalf("errors.As failed to recover diagnostics")
	}
	if msg := verr.Error(); !strings.Contains(msg, "layer 3") {
		t.Fatalf("error message %q not located", msg)
	}
	two := &verify.Error{Diags: append(diags, diags[0])}
	if msg := two.Error(); !strings.Contains(msg, "and 1 more") {
		t.Fatalf("multi-diagnostic message %q missing count", msg)
	}
}

// Violation lists sort into one canonical order regardless of the order
// the sweep discovered them in — rtmap-vet -json output and golden-file
// comparisons depend on it.
func TestSortDiagnosticsDeterministic(t *testing.T) {
	canonical := []verify.Diagnostic{
		{Model: "a", Layer: 0, Strip: 0, Tile: 0, Op: -1, Invariant: "x", Detail: "d1"},
		{Model: "a", Layer: 0, Strip: 0, Tile: 0, Op: -1, Invariant: "x", Detail: "d2"},
		{Model: "a", Layer: 0, Strip: 0, Tile: 0, Op: 3, Invariant: "x", Detail: "d"},
		{Model: "a", Layer: 0, Strip: 0, Tile: 1, Op: -1, Invariant: "y", Detail: "d"},
		{Model: "a", Layer: 0, Strip: 2, Tile: 0, Op: -1, Invariant: "x", Detail: "d"},
		{Model: "a", Layer: 5, Strip: -1, Tile: -1, Op: -1, Invariant: "x", Detail: "d"},
		{Model: "b", Layer: 0, Strip: 0, Tile: 0, Op: -1, Invariant: "w", Detail: "d"},
	}
	// Two different arrival orders must both sort to the canonical one.
	shuffles := [][]int{
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 2, 5, 1, 4},
	}
	for _, perm := range shuffles {
		got := make([]verify.Diagnostic, len(canonical))
		for i, j := range perm {
			got[i] = canonical[j]
		}
		verify.SortDiagnostics(got)
		if !reflect.DeepEqual(got, canonical) {
			t.Fatalf("sort of permutation %v is not canonical:\n%v", perm, got)
		}
	}
	e := &verify.Error{Diags: []verify.Diagnostic{canonical[3], canonical[0]}}
	e.Sort()
	if e.Diags[0] != canonical[0] {
		t.Fatalf("Error.Sort did not order diagnostics: %v", e.Diags)
	}
}

// Located diagnostics round-trip through JSON unchanged — the contract
// of the serve error body and rtmap-vet -json.
func TestDiagnosticJSONRoundTrip(t *testing.T) {
	d := verify.Diagnostic{
		Model: "tinyresnet", Layer: 4, LayerName: "conv3", Strip: 1, Tile: 2,
		Op: -1, Invariant: "dataflow-liveness", Detail: "(channel 3, patch 0) dead",
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"model"`, `"layer"`, `"layer_name"`, `"strip"`, `"tile"`, `"op"`, `"invariant"`, `"detail"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("encoding %s missing key %s", data, key)
		}
	}
	var back verify.Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip changed the diagnostic: %+v != %+v", back, d)
	}
}

// Every view a compiled tile program's Parts builds passes AuditPlan
// against the instructions it runs: the cross-check of the linear proof
// CheckTileProgram makes instead.
func TestPartViewsAuditClean(t *testing.T) {
	comp := compileKept(t, model.TinyResNet(model.DefaultConfig()))
	views := 0
	for _, lp := range comp.Layers {
		for s, sp := range lp.StripPlans {
			for ti, tp := range sp.Programs {
				ref := verify.Ref{Model: "tinyresnet", Layer: lp.Index, LayerName: lp.Name, Strip: s, Tile: ti}
				for g := 1; g <= 8; g++ {
					if diags := verify.CheckPartViews(ref, tp, g); len(diags) > 0 {
						t.Fatalf("%d parts: %v", g, diags[0])
					}
					parts, err := tp.Parts(g)
					if err != nil {
						t.Fatal(err)
					}
					views += len(parts)
					// No op is run twice: the parts' ops, less the clears
					// each repeats, are the program's.
					ops, clears := 0, 0
					if len(parts) > 1 {
						clears = tp.ChanAt[0]
					}
					for _, pt := range parts {
						ops += pt.Plan.Ops() - clears
					}
					if whole, _ := tp.ExecPlan(); ops+clears != whole.Ops() {
						t.Fatalf("%d parts run %d ops after the clears, the program %d", len(parts), ops, whole.Ops()-clears)
					}
				}
			}
		}
	}
	if views < 100 {
		t.Fatalf("%d part views audited; the sweep is vacuous", views)
	}
}

// partMutation is one compiler bug a cut at channel boundaries must not
// survive. apply returns a mutated copy of a tile program, or nil where
// the operator has nothing to mutate.
type partMutation struct {
	name  string
	apply func(rng *rand.Rand, tp *codegen.TileProgram) *codegen.TileProgram
}

// mutated is tp with its instructions and boundaries replaced, lowered
// afresh: a compiler that emitted the bug would lower it too.
func mutated(tp *codegen.TileProgram, instrs []ap.Instr, chanAt []int) *codegen.TileProgram {
	return &codegen.TileProgram{
		Prog:          &ap.Program{Carry: tp.Prog.Carry, Cols: tp.Prog.Cols, Instrs: instrs},
		Phys:          tp.Phys,
		InputBindings: tp.InputBindings,
		AccVirt:       tp.AccVirt,
		ChanAt:        chanAt,
		Stats:         tp.Stats,
	}
}

// fragmentOf numbers each instruction's fragment, -1 for the clears.
func fragmentOf(tp *codegen.TileProgram) []int {
	frag := make([]int, len(tp.Prog.Instrs))
	f := -1
	for i := range frag {
		for f+1 < len(tp.ChanAt) && tp.ChanAt[f+1] <= i {
			f++
		}
		frag[i] = f
	}
	return frag
}

var partMutations = []partMutation{
	// A boundary moved strictly inside the fragment before or after it.
	{"move-boundary", func(rng *rand.Rand, tp *codegen.TileProgram) *codegen.TileProgram {
		at := append(append([]int(nil), tp.ChanAt...), len(tp.Prog.Instrs))
		var cands [][2]int // boundary, new position
		for j := range tp.ChanAt {
			lo := 0
			if j > 0 {
				lo = at[j-1]
			}
			for pos := lo + 1; pos < at[j+1]; pos++ {
				if pos != at[j] && (j > 0 || pos > at[0]) {
					cands = append(cands, [2]int{j, pos})
				}
			}
		}
		if len(cands) == 0 {
			return nil
		}
		c := cands[rng.IntN(len(cands))]
		chanAt := append([]int(nil), tp.ChanAt...)
		chanAt[c[0]] = c[1]
		return mutated(tp, tp.Prog.Instrs, chanAt)
	}},
	// One operand of a fragment reads another fragment's temporary.
	{"read-other-temp", func(rng *rand.Rand, tp *codegen.TileProgram) *codegen.TileProgram {
		frag, cols := fragmentOf(tp), tp.Prog.Cols
		temps := map[int][]int{} // fragment -> temps it writes
		for i, ins := range tp.Prog.Instrs {
			if frag[i] >= 0 && cols[ins.Dst].Temp {
				temps[frag[i]] = append(temps[frag[i]], ins.Dst)
			}
		}
		var reads [][2]int // instruction, operand (0 A, 1 B)
		for i, ins := range tp.Prog.Instrs {
			if ins.Op != ap.OpAdd && ins.Op != ap.OpSub {
				continue
			}
			if cols[ins.A].Temp {
				reads = append(reads, [2]int{i, 0})
			}
			if !ins.InPlace && cols[ins.B].Temp {
				reads = append(reads, [2]int{i, 1})
			}
		}
		if len(reads) == 0 || len(temps) < 2 {
			return nil
		}
		r := reads[rng.IntN(len(reads))]
		var other []int
		for f, ts := range temps {
			if f != frag[r[0]] {
				other = append(other, ts...)
			}
		}
		slices.Sort(other) // map order is random; the seed picks
		instrs := append([]ap.Instr(nil), tp.Prog.Instrs...)
		if c := other[rng.IntN(len(other))]; r[1] == 0 {
			instrs[r[0]].A = c
		} else {
			instrs[r[0]].B = c
		}
		return mutated(tp, instrs, tp.ChanAt)
	}},
}

// The partition proof's mutation harness: each operator, applied to the
// multi-channel tile programs of the small zoo, must be caught as a parts
// violation by CheckTileProgram every time.
func TestPartsCatchMutations(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 0x9a27))
	caught, total := map[string]int{}, map[string]int{}
	for _, net := range []*model.Network{model.TinyCNN(model.DefaultConfig()), model.TinyResNet(model.DefaultConfig())} {
		comp := compileKept(t, net)
		for _, lp := range comp.Layers {
			for s, sp := range lp.StripPlans {
				for ti, tp := range sp.Programs {
					ref := verify.Ref{Model: net.Name, Layer: lp.Index, LayerName: lp.Name, Strip: s, Tile: ti}
					for trial := 0; trial < 10; trial++ {
						for _, mu := range partMutations {
							m := mu.apply(rng, tp)
							if m == nil {
								continue
							}
							total[mu.name]++
							for _, d := range verify.CheckTileProgram(ref, m) {
								if d.Invariant == ap.InvParts {
									caught[mu.name]++
									break
								}
							}
						}
					}
				}
			}
		}
	}
	for _, mu := range partMutations {
		if total[mu.name] < 50 || caught[mu.name] != total[mu.name] {
			t.Errorf("%s: caught %d of %d mutants; want all of ≥ 50", mu.name, caught[mu.name], total[mu.name])
		}
	}
	t.Logf("caught %v of %v", caught, total)
}
