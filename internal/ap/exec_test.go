package ap

import (
	"math/rand/v2"
	"testing"
)

// buildProgram lays out columns on the nanowire (carry first, then data
// columns back to back) and returns the program skeleton.
func buildProgram(widths []int, unsigned []bool) *Program {
	p := &Program{Carry: 0}
	p.Cols = append(p.Cols, Col{Base: 0, Width: 1})
	base := 1
	for i, w := range widths {
		p.Cols = append(p.Cols, Col{Base: base, Width: w, Unsigned: unsigned[i]})
		base += w
	}
	return p
}

// extraDsts appends ds to p's destination table and returns their span,
// the Extra of a copy that writes them besides its Dst.
func extraDsts(p *Program, ds ...int) Span {
	p.Dsts = append(p.Dsts, ds...)
	return Span{Off: int32(len(p.Dsts) - len(ds)), N: int32(len(ds))}
}

func TestExecAddSubExhaustive(t *testing.T) {
	// Columns: carry, A (4-bit unsigned), B (6-bit signed), R (7-bit).
	p := buildProgram([]int{4, 6, 7}, []bool{true, false, false})
	const colA, colB, colR = 1, 2, 3
	p.Instrs = []Instr{
		{Op: OpAdd, Dst: colR, A: colA, B: colB, Width: 7},
		{Op: OpSub, Dst: colB, A: colA, B: colB, InPlace: true, Width: 6},
	}
	// 78 cases, one per row: the row bitsets cross a word boundary.
	vals := make([][]int64, len(p.Cols))
	for a := int64(0); a < 16; a += 3 {
		for b := int64(-32); b < 32; b += 5 {
			vals[colA] = append(vals[colA], a)
			vals[colB] = append(vals[colB], b)
		}
	}
	out, err := Exec(p, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, a0 := range vals[colA] {
		b0 := vals[colB][i]
		if want := a0 + b0; out[colR][i] != want {
			t.Fatalf("add: %d+%d = %d, want %d", a0, b0, out[colR][i], want)
		}
		want := b0 - a0
		// 6-bit two's complement wrap of the in-place result.
		want = ((want+32)%64+64)%64 - 32
		if out[colB][i] != want {
			t.Fatalf("sub in-place: %d-%d = %d, want %d", b0, a0, out[colB][i], want)
		}
	}
}

func TestExecNegAndCopy(t *testing.T) {
	p := buildProgram([]int{5, 6, 6, 6}, []bool{false, false, false, false})
	const colA, colN, colC1, colC2 = 1, 2, 3, 4
	p.Instrs = []Instr{
		{Op: OpNeg, Dst: colN, A: colA, Width: 6},
		{Op: OpCopy, Dst: colC1, Extra: extraDsts(p, colC2), A: colA, Width: 6},
	}
	src := []int64{-16, -7, -1, 0, 1, 5, 9, 15, 12}
	// Destinations start dirty: every write must replace all their bits.
	dirty := []int64{-32, 31, -1, 7, 0, -9, 21, 1, -2}
	out, err := Exec(p, [][]int64{nil, src, dirty, dirty, dirty})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range src {
		if out[colN][i] != -v {
			t.Errorf("neg(%d) = %d", v, out[colN][i])
		}
		if out[colC1][i] != v || out[colC2][i] != v {
			t.Errorf("copy(%d) = %d/%d (multi-destination write)", v, out[colC1][i], out[colC2][i])
		}
	}
}

func TestExecClear(t *testing.T) {
	p := buildProgram([]int{4, 4}, []bool{false, false})
	p.Instrs = []Instr{{Op: OpClear, Dst: 1, Width: 4}}
	out, err := Exec(p, [][]int64{nil, {7, -8, 3, -1}, {7, -8, 3, -1}})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range out[1] {
		if v != 0 {
			t.Errorf("row %d not cleared: %d", r, v)
		}
		if want := []int64{7, -8, 3, -1}[r]; out[2][r] != want {
			t.Errorf("row %d of an untouched column: %d, want %d", r, out[2][r], want)
		}
	}
}

// Exec stores what a nanowire can hold: each column truncated to its
// width, read back per its signedness. Value columns must share one row
// count, and a program cannot be handed more columns than it has.
func TestExecStoresTruncated(t *testing.T) {
	p := buildProgram([]int{4, 4}, []bool{false, true})
	out, err := Exec(p, [][]int64{nil, {7, 8, -9}, {15, 16, -1}})
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range [][]int64{nil, {7, -8, 7}, {15, 0, 15}} {
		for r, w := range want {
			if out[c][r] != w {
				t.Errorf("column %d row %d: %d, want %d", c, r, out[c][r], w)
			}
		}
	}
	if _, err := Exec(p, [][]int64{nil, {1, 2}, {1}}); err == nil {
		t.Error("ragged value columns accepted")
	}
	if _, err := Exec(p, make([][]int64, 4)); err == nil {
		t.Error("more value columns than program columns accepted")
	}
}

// evalWords runs p one whole column at a time: every instruction is int64
// arithmetic over the rows, wrapped to its width. This is the ISA's
// arithmetic read straight off the opcodes, with no LUT in it. A copy
// writes the same Width bits into every destination, and each
// destination's own signedness decides how they read back.
func evalWords(p *Program, vals [][]int64) [][]int64 {
	out := make([][]int64, len(p.Cols))
	for c, meta := range p.Cols {
		out[c] = make([]int64, len(vals[c]))
		for r, v := range vals[c] {
			out[c][r] = wrap(v, meta.Width, meta.Unsigned)
		}
	}
	for _, ins := range p.Instrs {
		a, b, w := out[ins.A], out[ins.B], ins.Width
		for _, d := range append([]int{ins.Dst}, p.ExtraDsts(&ins)...) {
			dst := out[d]
			for r := range dst {
				switch ins.Op {
				case OpClear:
					dst[r] = 0
				case OpCopy:
					dst[r] = wrap(a[r], w, p.Cols[d].Unsigned)
				case OpAdd:
					dst[r] = wrap(b[r]+a[r], w, false)
				case OpSub:
					dst[r] = wrap(b[r]-a[r], w, false)
				case OpNeg:
					dst[r] = wrap(-a[r], w, false)
				}
			}
		}
	}
	return out
}

// Property: the bit-serial LUT replay computes the ISA's word-level
// arithmetic (evalWords) on randomized programs at every lane width:
// random widths and signedness, in- and out-of-place ops, operand reuse,
// multi-destination copies and accumulation chains. Exec truncates widths
// ≥ 63 as a nanowire does, where evalWords never wraps; values stay below
// 2^47, so there the two may differ in bit 63 alone.
func TestExecMatchesWordRandomPrograms(t *testing.T) {
	for _, lane := range testLanes {
		for trial := 0; trial < 16; trial++ {
			rng := rand.New(rand.NewPCG(uint64(trial), 0x5eed+uint64(lane)))
			p := randomProgram(rng, lane)
			if p == nil {
				continue
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("lane %d trial %d: generated invalid program: %v", lane, trial, err)
			}
			rows := 4 + rng.IntN(8)
			vals := loadRandom(rng, p, rows)
			got, err := Exec(p, vals)
			if err != nil {
				t.Fatalf("lane %d trial %d: %v", lane, trial, err)
			}
			want := evalWords(p, vals)
			for c := 1; c < len(p.Cols); c++ {
				for r := 0; r < rows; r++ {
					g, w := got[c][r], want[c][r]
					if p.Cols[c].Width >= 63 {
						g, w = g<<1, w<<1
					}
					if g != w {
						t.Fatalf("lane %d trial %d: col %d row %d: bit-serial %d != word-level %d\nprogram: %v",
							lane, trial, c, r, got[c][r], want[c][r], p.Instrs)
					}
				}
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	p := buildProgram([]int{4, 4}, []bool{false, false})
	bad := []Instr{
		{Op: OpAdd, Dst: 1, A: 2, B: 2, InPlace: true, Width: 4}, // in-place dst != B
		{Op: OpAdd, Dst: 1, A: 1, B: 2, Width: 4},                // dst aliases operand
		{Op: OpAdd, Dst: 1, A: 2, B: 2, Width: 3},                // width != dst width
		{Op: OpAdd, Dst: 0, A: 1, B: 2, Width: 1},                // carry as dst
		{Op: OpCopy, Dst: 2, A: 2, Width: 4},                     // copy onto itself
		// The extra-destination table holds column 2.
		{Op: OpCopy, Dst: 1, A: 2, Width: 4, Extra: Span{N: 1}},          // extra dest is the source
		{Op: OpCopy, Dst: 1, A: 2, Width: 4, Extra: Span{Off: 1, N: 1}},  // run past the table
		{Op: OpCopy, Dst: 2, A: 1, Width: 4, Extra: Span{Off: -1, N: 1}}, // run before the table
		{Op: OpAdd, Dst: 1, A: 2, B: 2, Width: 4, Extra: Span{N: 1}},     // extra dests on an add
	}
	p.Dsts = []int{2}
	for i, ins := range bad {
		p.Instrs = []Instr{ins}
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, ins)
		}
	}
}
