package ap

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// randomProgram generates a valid program over nData columns with random
// widths/signedness, biased to emit the copy → in-place add/sub chains
// the code generator produces. lane is the lane width the plan must
// lower to: 16 keeps every column narrow, 32 makes the first column and
// a third of the rest 16–30 bits, 64 makes them 61–64 bits (straddling
// the wrap-identity threshold, 63, to exercise the no-wrap paths). The
// last one or two columns are signed 14-bit accumulators: sums of a few
// dozen narrow columns provably fit them, so the runs case 6 emits lower
// to fast ops — the shape of a compiled program — cut by whatever escape
// the other cases put between and inside them.
func randomProgram(rng *rand.Rand, lane int) *Program {
	nData, nAcc := 3+rng.IntN(4), 1+rng.IntN(2)
	widths := make([]int, nData+nAcc)
	unsigned := make([]bool, nData+nAcc)
	var narrow []int // columns a 14-bit accumulator can sum dozens of
	for i := range widths {
		if i >= nData {
			widths[i] = 14
			continue
		}
		widths[i] = 3 + rng.IntN(6)
		if lane > 16 && (i == 0 || rng.IntN(3) == 0) {
			if lane == 32 {
				widths[i] = 16 + rng.IntN(15)
			} else {
				widths[i] = 61 + rng.IntN(4)
			}
		} else {
			narrow = append(narrow, i+1)
		}
		unsigned[i] = rng.IntN(3) == 0
	}
	p := buildProgram(widths, unsigned)

	var signedCols, allCols []int
	for c := 1; c <= nData; c++ {
		allCols = append(allCols, c)
		if !p.Cols[c].Unsigned {
			signedCols = append(signedCols, c)
		}
	}
	if len(signedCols) == 0 {
		return nil
	}
	sameWidth := func(dst int) []int {
		var out []int
		for _, c := range allCols {
			if c != dst && p.Cols[c].Width == p.Cols[dst].Width {
				out = append(out, c)
			}
		}
		return out
	}
	nInstr := 5 + rng.IntN(10)
	for len(p.Instrs) < nInstr {
		dst := signedCols[rng.IntN(len(signedCols))]
		w := p.Cols[dst].Width
		pick := func() int { return allCols[rng.IntN(len(allCols))] }
		switch rng.IntN(7) {
		case 6: // a run of wrap-free add/sub into an accumulator, 1 to 25 ops long
			if len(narrow) == 0 {
				continue
			}
			acc := nData + 1 + rng.IntN(nAcc)
			src := func() int { return narrow[rng.IntN(len(narrow))] }
			op := func() Opcode { return [...]Opcode{OpAdd, OpSub}[rng.IntN(2)] }
			// An out-of-place start forgets whatever the accumulator held,
			// so the whole run is provable: |acc| ≤ 2·255 + 24·255 < 2^13.
			p.Instrs = append(p.Instrs, Instr{Op: op(), Dst: acc, A: src(), B: src(), Width: 14})
			for n := [...]int{0, 0, 1, 3, 7, 24}[rng.IntN(6)]; n > 0; n-- {
				p.Instrs = append(p.Instrs, Instr{Op: op(), Dst: acc, A: src(), B: acc, InPlace: true, Width: 14})
			}
		case 0: // in-place add/sub
			op := OpAdd
			if rng.IntN(2) == 0 {
				op = OpSub
			}
			a := pick()
			if a == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: op, Dst: dst, A: a, B: dst, InPlace: true, Width: w})
		case 1: // out-of-place add/sub
			op := OpAdd
			if rng.IntN(2) == 0 {
				op = OpSub
			}
			a, b := pick(), pick()
			if a == dst || b == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: op, Dst: dst, A: a, B: b, Width: w})
		case 2: // neg
			a := pick()
			if a == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpNeg, Dst: dst, A: a, Width: w})
		case 3: // clear
			p.Instrs = append(p.Instrs, Instr{Op: OpClear, Dst: dst, Width: w})
		case 4: // copy, possibly multi-destination with mixed signedness
			a := pick()
			if a == dst {
				continue
			}
			ins := Instr{Op: OpCopy, Dst: dst, A: a, Width: w}
			for _, d := range sameWidth(dst) {
				if d != a && rng.IntN(3) == 0 {
					ins.Dsts = append(ins.Dsts, d)
				}
			}
			p.Instrs = append(p.Instrs, ins)
		case 5: // copy followed by an accumulation chain (the codegen shape)
			a := pick()
			if a == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpCopy, Dst: dst, A: a, Width: w})
			for n := rng.IntN(3); n > 0; n-- {
				op := OpAdd
				if rng.IntN(2) == 0 {
					op = OpSub
				}
				x := pick()
				if x == dst {
					break
				}
				p.Instrs = append(p.Instrs, Instr{Op: op, Dst: dst, A: x, B: dst, InPlace: true, Width: w})
			}
		}
	}
	return p
}

// run1D is the one-row grid of an n-value run.
func run1D(n, stride int) Grid {
	return Grid{Q1: n, W: n, Hi: n, Pitch: n * stride, Stride: stride}
}

// setRows loads consecutive values into rows [row0, row0+len(vals)).
func setRows(m *Machine, col, row0 int, vals []int32) {
	m.LoadRows(col, row0, vals, run1D(len(vals), 1))
}

func loadRandom(rng *rand.Rand, p *Program, rows int) [][]int64 {
	vals := make([][]int64, len(p.Cols))
	for c := range vals {
		vals[c] = make([]int64, rows)
	}
	for c := 1; c < len(p.Cols); c++ {
		meta := p.Cols[c]
		w := meta.Width
		if w > 31 {
			w = 31 // keep wide columns representable as int32 loads
		}
		for r := 0; r < rows; r++ {
			if meta.Unsigned && meta.Width < 63 {
				vals[c][r] = rng.Int64N(1 << uint(w))
			} else {
				// Signed columns — and nominally unsigned columns of
				// width ≥ 63, where wrap is the identity and loads can
				// legally deposit negative values.
				half := int64(1) << uint(w-1)
				vals[c][r] = rng.Int64N(2*half) - half
			}
		}
	}
	return vals
}

// testLanes maps a trial index to the lane width its random program is
// generated for.
var testLanes = [...]int{16, 32, 64}

// runShapes records which shapes of fast-op run a set of plans has shown
// Run: its loop enters and leaves the straight-line body at every escape,
// so each way a run can start, end and abut another must meet Exec.
type runShapes struct{ first, last, empty, single, long, backToBack bool }

func (s *runShapes) see(plan *ExecPlan) {
	n := len(plan.ops)
	s.first = s.first || isFast(plan.ops[0])
	s.last = s.last || isFast(plan.ops[n-1])
	prev := -1 // length of the run before the last escape, -1 before the first
	for i := 0; i <= n; {
		run := 0
		for ; i < n && isFast(plan.ops[i]); i++ {
			run++
		}
		s.empty = s.empty || run == 0 && i < n && i > 0
		s.single = s.single || run == 1
		s.long = s.long || run >= 16
		s.backToBack = s.backToBack || run >= 2 && prev >= 2
		prev, i = run, i+1
	}
}

// Property: ExecPlan Machine execution is bit-identical to the bit-serial
// LUT replay (Exec) on randomized programs at every lane width —
// multi-destination copies, wrapping and wrap-free ops, fast-op runs of
// every shape, reused machines (Reset), wide columns — over row counts on
// both sides of every word boundary, among them 1, 3, 4, 5, 8, 9, 16 and
// 17 words per column at each lane width: each kernel's single-word form,
// the generic 4-word body and the AVX2 8-word body alone and with their
// tails — under every kernel this CPU runs. Columns load in two segments cut at
// a random row, the way batch items land at row b·n: rarely a multiple of
// the lane count. Exec truncates every width as a nanowire does, while
// the engine treats widths ≥ 63 as never wrapping. Values stay below
// 2^47 (loads below 2^31, and no program doubles one more than 16
// times), so the two differ only where a load or a copy puts a negative
// value in an unsigned 63-bit column: the nanowire reads it back 2^63
// higher, and that offset reaches nothing but bit 63 of what it feeds.
// Every bit beneath bit 63 must agree.
func TestMachineMatchesExecRandomPrograms(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		var m Machine // reused across trials: Reset must fully rebind state
		var shapes runShapes
		for _, lane := range testLanes {
			rowSet := []int{31, 33, 49, 64, 65}
			for _, words := range []int{1, 3, 4, 5, 8, 9, 16, 17} {
				per := 64 / lane
				rowSet = append(rowSet, words*per, (words-1)*per+1)
			}
			for _, rows := range rowSet {
				for trial := 0; trial < 8; trial++ {
					rng := rand.New(rand.NewPCG(uint64(trial*1000+rows), 0xa11ec+uint64(lane)))
					p := randomProgram(rng, lane)
					if p == nil {
						continue
					}
					if err := p.Validate(); err != nil {
						t.Fatalf("lane %d rows %d trial %d: generated invalid program: %v", lane, rows, trial, err)
					}
					plan, err := NewExecPlan(p)
					if err != nil {
						t.Fatalf("lane %d rows %d trial %d: %v", lane, rows, trial, err)
					}
					if plan.LaneBits() != lane {
						t.Fatalf("lane %d rows %d trial %d: plan lowered to %d-bit lanes\ncolumns: %+v",
							lane, rows, trial, plan.LaneBits(), p.Cols)
					}
					shapes.see(plan)
					m.Reset(plan, rows)

					vals := loadRandom(rng, p, rows)
					v32 := make([]int32, rows)
					cut := rng.IntN(rows + 1)
					for c := 1; c < len(p.Cols); c++ {
						for r, v := range vals[c] {
							v32[r] = int32(v)
						}
						setRows(&m, c, cut, v32[cut:])
						setRows(&m, c, 0, v32[:cut])
					}
					want, err := Exec(p, vals)
					if err != nil {
						t.Fatalf("lane %d rows %d trial %d: %v", lane, rows, trial, err)
					}
					m.Run()
					acc := make([]int32, rows-cut)
					for c := 1; c < len(p.Cols); c++ {
						got := m.Column(c)
						clear(acc)
						m.AccumulateColumn(c, cut, acc)
						for r := 0; r < rows; r++ {
							if got[r]<<1 != want[c][r]<<1 {
								t.Fatalf("lane %d rows %d trial %d: col %d row %d: plan %d != bit-serial %d\nprogram: %v",
									lane, rows, trial, c, r, got[r], want[c][r], p.Instrs)
							}
							if r >= cut && acc[r-cut] != int32(want[c][r]) {
								t.Fatalf("lane %d rows %d trial %d: col %d row %d: accumulated %d != bit-serial %d",
									lane, rows, trial, c, r, acc[r-cut], int32(want[c][r]))
							}
						}
					}
				}
			}
		}
		if shapes != (runShapes{true, true, true, true, true, true}) {
			t.Fatalf("generator regressed: fast-op run shapes seen %+v, want all", shapes)
		}
	})
}

// withTemps returns a copy of p with a random subset of its
// write-before-read columns — those whose first reference writes them —
// marked Temp, or nil if it marked none.
func withTemps(rng *rand.Rand, p *Program) *Program {
	q := *p
	q.Cols = append([]Col(nil), p.Cols...)
	seen := make([]bool, len(q.Cols))
	marked := false
	for _, ins := range q.Instrs {
		switch ins.Op {
		case OpAdd, OpSub:
			seen[ins.A], seen[ins.B] = true, true
		case OpNeg, OpCopy:
			seen[ins.A] = true
		case OpClear:
		}
		for _, c := range append([]int{ins.Dst}, ins.Dsts...) {
			if !seen[c] && c != q.Carry && rng.IntN(3) > 0 {
				q.Cols[c].Temp, marked = true, true
			}
			seen[c] = true
		}
	}
	if !marked {
		return nil
	}
	return &q
}

// The same property when a random subset of the write-before-read columns
// are Temp, so they share arena slots: every non-temp column must still
// match Exec bit for bit (a temp's value after its last reference is
// undefined), and the slot tables must come out narrower than the column
// tables on some trials, or the test proves nothing about reuse.
func TestMachineMatchesExecRandomTempPrograms(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		var m Machine
		trials, narrower := 0, 0
		for _, lane := range testLanes {
			for _, rows := range []int{1, 31, 64, 65, 17 * 64 / lane} {
				for trial := 0; trial < 24; trial++ {
					rng := rand.New(rand.NewPCG(uint64(trial*1000+rows), 0x7e3b+uint64(lane)))
					p := randomProgram(rng, lane)
					if p == nil {
						continue
					}
					if p = withTemps(rng, p); p == nil {
						continue
					}
					plan, err := NewExecPlan(p)
					if err != nil {
						t.Fatalf("lane %d rows %d trial %d: %v", lane, rows, trial, err)
					}
					if vs := AuditPlan(p, plan); len(vs) > 0 {
						t.Fatalf("lane %d rows %d trial %d: audit: %v", lane, rows, trial, vs[0])
					}
					trials++
					if plan.Slots() < len(p.Cols) {
						narrower++
					}
					m.Reset(plan, rows)
					vals := loadRandom(rng, p, rows)
					v32 := make([]int32, rows)
					for c := 1; c < len(p.Cols); c++ {
						if p.Cols[c].Temp {
							continue
						}
						for r, v := range vals[c] {
							v32[r] = int32(v)
						}
						setRows(&m, c, 0, v32)
					}
					want, err := Exec(p, vals)
					if err != nil {
						t.Fatal(err)
					}
					m.Run()
					for c := 1; c < len(p.Cols); c++ {
						if p.Cols[c].Temp {
							continue
						}
						got := m.Column(c)
						for r := range rows {
							if got[r]<<1 != want[c][r]<<1 {
								t.Fatalf("lane %d rows %d trial %d: col %d row %d: plan %d != bit-serial %d\ncolumns %+v\nprogram: %v",
									lane, rows, trial, c, r, got[r], want[c][r], p.Cols, p.Instrs)
							}
						}
					}
				}
			}
		}
		t.Logf("%d programs with temps, %d stored in fewer slots than columns", trials, narrower)
		if trials < 100 || narrower == 0 {
			t.Fatalf("generator regressed: %d programs with temps, %d with slot reuse", trials, narrower)
		}
	})
}

// A multi-destination copy with mixed destination signedness: the bit
// machine writes the same bits everywhere and each column reads them back
// per its own metadata, so the ExecPlan machine must wrap per
// destination. Negative sources make an unsigned destination read the
// raw bit pattern, not the signed value.
func TestMachineMatchesExecMixedSignCopy(t *testing.T) {
	// carry, src (6b signed), d1 (6b signed), d2 (6b unsigned).
	p := buildProgram([]int{6, 6, 6}, []bool{false, false, true})
	const src, d1, d2 = 1, 2, 3
	p.Instrs = []Instr{
		{Op: OpCopy, Dst: d1, Dsts: []int{d2}, A: src, Width: 6},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	srcVals := []int64{-32, -17, -1, 0, 1, 13, 31, -5}
	rows := len(srcVals)

	bit, err := Exec(p, [][]int64{nil, srcVals})
	if err != nil {
		t.Fatal(err)
	}

	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine
	m.Reset(plan, rows)
	v32 := make([]int32, rows)
	for r, v := range srcVals {
		v32[r] = int32(v)
	}
	setRows(&m, src, 0, v32)
	m.Run()

	for _, col := range []int{d1, d2} {
		pl := m.Column(col)
		for r := 0; r < rows; r++ {
			if pl[r] != bit[col][r] {
				t.Errorf("col %d row %d (src %d): plan %d != bit-level %d",
					col, r, srcVals[r], pl[r], bit[col][r])
			}
		}
	}
	// The unsigned destination of a negative source must hold the raw
	// 6-bit pattern (v + 64), or the whole test is vacuous.
	if got := m.Column(d2)[0]; got != srcVals[0]+64 {
		t.Fatalf("unsigned destination read %d, want %d", got, srcVals[0]+64)
	}
}

// The lowering is one op per instruction — copy → in-place chains stay
// three ops — so the plan op count is the program's instruction count.
func TestExecPlanOneOpPerInstruction(t *testing.T) {
	p := buildProgram([]int{5, 5, 5}, []bool{false, false, false})
	p.Instrs = []Instr{
		{Op: OpCopy, Dst: 2, A: 1, Width: 5},
		{Op: OpAdd, Dst: 2, A: 3, B: 2, InPlace: true, Width: 5},
		{Op: OpSub, Dst: 2, A: 1, B: 2, InPlace: true, Width: 5},
		{Op: OpNeg, Dst: 3, A: 2, Width: 5},
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ops() != len(p.Instrs) {
		t.Fatalf("plan has %d ops for %d instructions", plan.Ops(), len(p.Instrs))
	}
}

// Width-62 destinations DO wrap (the engine treats only widths from 63
// up as never wrapping), and the range analysis must not shortcut them:
// doubling 2^30 up to 2^62 in wide columns and copying into a 62-bit
// column must truncate to zero on both machines. Regression for an
// off-by-one where the analysis treated width ≥ 62 as unconditionally
// safe.
func TestWidth62CopyWraps(t *testing.T) {
	p := buildProgram([]int{64, 64, 62}, []bool{false, false, false})
	const colA, colB, colD = 1, 2, 3
	// 32 alternating doublings: 2^30 → 2^62 (lands in colA).
	for k := 0; k < 32; k++ {
		src, dst := colA, colB
		if k%2 == 1 {
			src, dst = colB, colA
		}
		p.Instrs = append(p.Instrs, Instr{Op: OpAdd, Dst: dst, A: src, B: src, Width: 64})
	}
	p.Instrs = append(p.Instrs, Instr{Op: OpCopy, Dst: colD, A: colA, Width: 62})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const rows = 2
	bit, err := Exec(p, [][]int64{nil, {1 << 30, 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine
	m.Reset(plan, rows)
	setRows(&m, colA, 0, []int32{1 << 30, 1 << 30})
	m.Run()
	for r := 0; r < rows; r++ {
		if got := bit[colA][r]; got != 1<<62 {
			t.Fatalf("bit-serial row %d: doubled to %d, want 2^62", r, got)
		}
		if got := bit[colD][r]; got != 0 {
			t.Fatalf("bit-serial row %d: 2^62 wrapped at width 62 to %d, want 0", r, got)
		}
		if got := m.Column(colD)[r]; got != 0 {
			t.Fatalf("plan machine row %d: 2^62 wrapped at width 62 to %d, want 0", r, got)
		}
	}
}

// LoadRows wraps to the stored format and gathers a strided source, and
// AccumulateColumn adds in place over a row segment — the batched
// load/reduce primitives.
func TestSetColumnInt32AndAccumulate(t *testing.T) {
	p := buildProgram([]int{4, 8}, []bool{true, false})
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine
	m.Reset(plan, 6)
	setRows(&m, 1, 0, []int32{15, 16, 17})  // 4-bit unsigned: wraps mod 16
	setRows(&m, 1, 3, []int32{-1, 255, 31}) // segment load at row 3
	want := []int64{15, 0, 1, 15, 15, 15}
	for r, w := range m.Column(1) {
		if w != want[r] {
			t.Fatalf("row %d: %d, want %d", r, w, want[r])
		}
	}
	acc := []int32{100, 100, 100}
	m.AccumulateColumn(1, 3, acc)
	for i, v := range acc {
		if v != 115 {
			t.Fatalf("acc[%d] = %d, want 115", i, v)
		}
	}
	// Every second source element into the signed 8-bit column, starting
	// mid-word: 200 wraps to -56.
	m.LoadRows(2, 1, []int32{1, 99, -2, 99, 200, 99, 127}, run1D(4, 2))
	for r, w := range []int64{1, -2, -56, 127} {
		if got := m.Column(2)[1+r]; got != w {
			t.Fatalf("strided row %d: %d, want %d", 1+r, got, w)
		}
	}
}

// benchRunPlan is the shape of a compiled tile program: a prefix of
// clears, then one unbroken run of wrap-free add/sub — ops in all, over
// 512 8-bit inputs and 4 096 14-bit temporaries at 16-bit lanes.
func benchRunPlan(tb testing.TB, ops int) *ExecPlan {
	const nIn, nTmp, nClear = 512, 4096, 64
	widths := make([]int, nIn+nTmp)
	for i := range widths {
		widths[i] = 8
		if i >= nIn {
			widths[i] = 14
		}
	}
	p := buildProgram(widths, make([]bool, len(widths)))
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < ops; i++ {
		tmp := 1 + nIn + i%nTmp
		if i < nClear {
			p.Instrs = append(p.Instrs, Instr{Op: OpClear, Dst: tmp, Width: 14})
			continue
		}
		op := [...]Opcode{OpAdd, OpSub}[rng.IntN(2)]
		p.Instrs = append(p.Instrs, Instr{Op: op, Dst: tmp, A: 1 + rng.IntN(nIn), B: 1 + rng.IntN(nIn), Width: 14})
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		tb.Fatal(err)
	}
	if plan.LaneBits() != 16 || len(plan.esc) != nClear {
		tb.Fatalf("bench plan lowered to %d-bit lanes with %d escapes, want 16 and %d", plan.LaneBits(), len(plan.esc), nClear)
	}
	return plan
}

// BenchmarkMachineRun prices op dispatch: one 50k-op plan replayed over
// 1, 8 and 64 words per column under each kernel this CPU runs.
// ns/op-pass is what one op costs however few rows it advances; ns/word
// is what its arithmetic costs once the column is long enough to hide
// that.
func BenchmarkMachineRun(b *testing.B) {
	const ops = 50_000
	plan := benchRunPlan(b, ops)
	for _, k := range kernelSets {
		for _, words := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("kernel=%s/words=%d", k.name, words), func(b *testing.B) {
				defer swapKernels(k)()
				var m Machine
				m.Reset(plan, words*4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Run()
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/ops, "ns/op-pass")
				b.ReportMetric(ns/ops/float64(words), "ns/word")
			})
		}
	}
}

// The op stream is the interpreter's front-end memory traffic: a fast op
// is three 32-bit column indices and nothing else.
func TestPlanOpSize(t *testing.T) {
	if s := unsafe.Sizeof(planOp{}); s != 12 {
		t.Fatalf("planOp is %d bytes, want 12", s)
	}
}

// lanePlan is a load target at one lane width: every column format the
// lane holds, signed and unsigned (columns 1–3 signed, 4–6 unsigned, and
// so on), lowered with no instructions.
func lanePlan(t testing.TB, lane int) (*Program, *ExecPlan) {
	widths := []int{4, 8, 14, 4, 8, 14}
	switch lane {
	case 32:
		widths = append(widths, 30, 30) // no narrower lane holds these
	case 64:
		widths = append(widths, 63, 64, 63, 64)
	}
	unsigned := make([]bool, len(widths))
	for i := range unsigned {
		unsigned[i] = i/3%2 == 1
	}
	p := buildProgram(widths, unsigned)
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.LaneBits() != lane {
		t.Fatalf("plan lowered to %d-bit lanes, want %d", plan.LaneBits(), lane)
	}
	return p, plan
}

// LoadRows wraps a word at a time — a contiguous grid as one run across
// its rows, any other grid one run per row; whole words from one window
// of the source, the ends and strided runs lane by lane — and must equal
// one put per position: every grid width a convolution loads on both
// sides of a word, both strides, a contiguous pitch and a pad-0 one, 0–3
// border columns on each side, grids that start and end mid-row and on
// row ends, every alignment of the first row, every column format, and
// int32s far outside the format. Rows outside the grid keep what a
// previous load left; border positions, which read zero before the call
// (the zero-set contract), read zero after it. Under every kernel set.
func TestLoadRowsMatchesPerLane(t *testing.T) {
	eachKernel(t, testLoadRowsMatchesPerLane)
}

func testLoadRowsMatchesPerLane(t *testing.T) {
	const gridRows = 3
	cases := 0
	for _, lane := range testLanes {
		p, plan := lanePlan(t, lane)
		rows := 64/lane + gridRows*32
		rng := rand.New(rand.NewPCG(uint64(lane), 0x10ad))
		var got, want Machine
		got.Reset(plan, rows)
		want.Reset(plan, rows)
		for _, w := range []int{1, 3, 4, 7, 8, 32} {
			for _, stride := range []int{1, 2} {
				for _, pitch := range []int{w * stride, (w + 2) * stride} {
					for lo := 0; lo <= 3 && lo < w; lo++ {
						for rb := 0; rb <= 3 && rb < w; rb++ {
							hi := max(lo, w-rb)
							for _, q0 := range []int{0, 1, w - 1, w} {
								for _, q1 := range []int{2*w - 1, 2 * w, 2*w + 1, gridRows * w} {
									for row0 := 0; row0 < 64/lane && q0 <= q1; row0++ {
										cases++
										col := 1 + cases%(len(p.Cols)-1)
										g := Grid{Q0: q0, Q1: q1, W: w, Lo: lo, Hi: hi, Pitch: pitch, Stride: stride}
										checkGridLoad(t, rng, &got, &want, p.Cols[col], col, row0, g)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if cases < 20000 {
		t.Fatalf("only %d grid loads checked; the sweep regressed", cases)
	}
}

// checkGridLoad runs one grid load on got and its per-position reference
// on want, from the same random prior state, and compares every row.
func checkGridLoad(t *testing.T, rng *rand.Rand, got, want *Machine, meta Col, col, row0 int, g Grid) {
	t.Helper()
	valid := func(q int) bool { c := q % g.W; return c >= g.Lo && c < g.Hi }
	srcLen := 0 // exact: an over-read panics
	for q := g.Q0; q < g.Q1; q++ {
		if valid(q) {
			srcLen = q/g.W*g.Pitch + (q%g.W-g.Lo)*g.Stride + 1
		}
	}
	src := make([]int32, srcLen)
	for i := range src {
		src[i] = int32(rng.Uint32()) >> (rng.UintN(4) * 8) // all magnitudes, both signs
	}
	for r := 0; r < got.rows; r++ { // what a previous load left behind
		v := wrap(int64(rng.Int32()), meta.Width, meta.Unsigned)
		if q := g.Q0 + r - row0; q >= g.Q0 && q < g.Q1 && !valid(q) {
			v = 0
		}
		got.put(int32(col), r, v)
		want.put(int32(col), r, v)
	}
	got.LoadRows(col, row0, src, g)
	for q := g.Q0; q < g.Q1; q++ {
		if valid(q) {
			v := src[q/g.W*g.Pitch+(q%g.W-g.Lo)*g.Stride]
			want.put(int32(col), row0+q-g.Q0, wrap(int64(v), meta.Width, meta.Unsigned))
		}
	}
	for r := 0; r < got.rows; r++ {
		if a, b := got.get(int32(col), r), want.get(int32(col), r); a != b {
			t.Fatalf("lane %d col %+v grid %+v row0 %d: row %d holds %d, want %d", got.lane, meta, g, row0, r, a, b)
		}
	}
}

// A grid with no valid column loads nothing, and a grid outside the
// machine or with its valid columns outside the grid panics, under every
// kernel set.
func TestLoadRowsGridEdges(t *testing.T) {
	eachKernel(t, testLoadRowsGridEdges)
}

func testLoadRowsGridEdges(t *testing.T) {
	_, plan := lanePlan(t, 16)
	var m Machine
	m.Reset(plan, 8)
	setRows(&m, 1, 0, []int32{1, 2, 3, 4, 5, 6, 7, -8})
	m.LoadRows(1, 0, nil, Grid{Q1: 8, W: 4, Lo: 2, Hi: 2, Pitch: 4, Stride: 1})
	for r, v := range m.Column(1) {
		if want := int64(r + 1); r == 7 && v != -8 || r < 7 && v != want {
			t.Fatalf("row %d of an empty grid's column reads %d", r, v)
		}
	}
	for _, g := range []Grid{
		{Q1: 9, W: 9, Hi: 9, Pitch: 9, Stride: 1},
		{Q0: 2, Q1: 1, W: 4, Hi: 4, Pitch: 4, Stride: 1},
		{Q1: 4, W: 4, Lo: 3, Hi: 2, Pitch: 4, Stride: 1},
		{Q1: 4, W: 4, Hi: 5, Pitch: 4, Stride: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("grid %+v did not panic", g)
				}
			}()
			m.LoadRows(1, 0, make([]int32, 16), g)
		}()
	}
}

// CopyRows moves whole words between two columns of one format: equal
// to a per-row copy for runs of none, one, a partial, a whole and several
// words plus one row, at each lane, from and to rows on both sides of
// each other. Every destination row outside the run — the rest of its
// last word included — survives, and an unaligned row or a format
// mismatch panics.
func TestCopyRowsMatchesPerLane(t *testing.T) {
	for _, lane := range testLanes {
		// Two 8-bit signed columns, an 8-bit unsigned one, and one that sets
		// the lane.
		widths := map[int]int{16: 8, 32: 30, 64: 64}
		const src, dst, unsigned = 1, 2, 3
		p := buildProgram([]int{8, 8, 8, widths[lane]}, []bool{false, false, true, false})
		plan, err := NewExecPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		per := 64 / lane
		rows := 12 * per
		rng := rand.New(rand.NewPCG(uint64(lane), 0xc0b1))
		var m Machine
		m.Reset(plan, rows)
		for _, n := range []int{0, 1, per - 1, per, 5*per + 1} {
			for _, sw := range []int{0, 1, 5} {
				for _, dw := range []int{0, 2, 5} {
					for r := 0; r < rows; r++ {
						m.put(src, r, wrap(int64(rng.Int32()), 8, false))
						m.put(dst, r, wrap(int64(rng.Int32()), 8, false))
					}
					from, want := m.Column(src), m.Column(dst)
					copy(want[dw*per:dw*per+n], from[sw*per:])
					m.CopyRows(dst, dw*per, src, sw*per, n)
					for r, v := range m.Column(dst) {
						if v != want[r] {
							t.Fatalf("lane %d: %d rows from row %d to row %d: row %d holds %d, want %d",
								lane, n, sw*per, dw*per, r, v, want[r])
						}
					}
				}
			}
		}
		bad := [][5]int{{dst, 0, unsigned, 0, 4}, {dst, 0, src, rows - 3, 4}}
		if per > 1 {
			bad = append(bad, [5]int{dst, 1, src, 0, 4}, [5]int{dst, 0, src, per - 1, 4})
		}
		for _, args := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("lane %d: CopyRows%v did not panic", lane, args)
					}
				}()
				m.CopyRows(args[0], args[1], args[2], args[3], args[4])
			}()
		}
	}
}

// AccumulateColumn reads whole words once for their 4, 2 or 1 rows and
// must equal adding one lane at a time, from every alignment of the first
// row, over runs that stay inside a word, end on a boundary, and cross
// one or several, under every kernel set.
func TestAccumulateColumnMatchesPerLane(t *testing.T) {
	eachKernel(t, testAccumulateColumnMatchesPerLane)
}

func testAccumulateColumnMatchesPerLane(t *testing.T) {
	for _, lane := range testLanes {
		p, plan := lanePlan(t, lane)
		const rows = 48
		rng := rand.New(rand.NewPCG(uint64(lane), 0xacc))
		var m Machine
		m.Reset(plan, rows)
		for col := 1; col < len(p.Cols); col++ {
			meta := p.Cols[col]
			for r := 0; r < rows; r++ {
				m.put(int32(col), r, wrap(rng.Int64(), min(meta.Width, 32), meta.Unsigned))
			}
			for row0 := 0; row0 < 64/lane; row0++ {
				for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33} {
					got, want := make([]int32, n), make([]int32, n)
					for i := range got {
						got[i] = rng.Int32() >> 4
						want[i] = got[i] + int32(m.get(int32(col), row0+i))
					}
					m.AccumulateColumn(col, row0, got)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("lane %d col %+v row0 %d n %d: row %d accumulated %d, want %d",
								lane, meta, row0, n, row0+i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// benchGrids are the grids vgg9's 3×3 convolutions load at 16-bit lanes,
// one whole output plane of rows w long: the centre kernel column (no
// border), the left (one border column on the left of each row) and the
// right, all contiguous; and a stride-2 centre tap over an input twice as
// wide, one run per row.
func benchGrids(w int) map[string]Grid {
	n := w * w
	return map[string]Grid{
		"centre":  {Q1: n, W: w, Lo: 0, Hi: w, Pitch: w, Stride: 1},
		"left":    {Q1: n, W: w, Lo: 1, Hi: w, Pitch: w, Stride: 1},
		"right":   {Q1: n, W: w, Lo: 0, Hi: w - 1, Pitch: w, Stride: 1},
		"stride2": {Q1: n, W: w, Lo: 0, Hi: w, Pitch: 4 * w, Stride: 2},
	}
}

// BenchmarkLoadRows prices the gather primitive per grid position on the
// planes vgg9 runs: w 32 (1 024 rows), 16 and 8, for each kind of tap,
// and the one-position grid of a linear layer (w 1, whose border taps
// are empty), under each kernel set this CPU runs.
func BenchmarkLoadRows(b *testing.B) {
	_, plan := lanePlan(b, 16)
	for _, k := range kernelSets {
		for _, w := range []int{32, 16, 8, 1} {
			src := make([]int32, 4*w*w)
			for i := range src {
				src[i] = int32(i*37 - 1000)
			}
			var m Machine
			m.Reset(plan, w*w)
			for _, kind := range []string{"centre", "left", "right", "stride2"} {
				g := benchGrids(w)[kind]
				b.Run(fmt.Sprintf("kernel=%s/w=%d/%s", k.name, w, kind), func(b *testing.B) {
					defer swapKernels(k)()
					for i := 0; i < b.N; i++ {
						m.LoadRows(1, 0, src, g)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Q1), "ns/elem")
				})
			}
		}
	}
}

// BenchmarkCopyRows prices a derived tap: an output plane of rows w long
// less one row, copied one output row away, at 16-bit lanes.
func BenchmarkCopyRows(b *testing.B) {
	plan, err := NewExecPlan(buildProgram([]int{8, 8}, []bool{true, true}))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{32, 16, 8} {
		var m Machine
		m.Reset(plan, w*w)
		n := w*w - w
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.CopyRows(2, 0, 1, w, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
		})
	}
}

// BenchmarkAccumulateColumn prices the read-back of one output channel
// over a plane's rows, from a word boundary and from inside a word,
// under each kernel set this CPU runs.
func BenchmarkAccumulateColumn(b *testing.B) {
	_, plan := lanePlan(b, 16)
	var m Machine
	m.Reset(plan, 1025)
	dst := make([]int32, 1024)
	for _, k := range kernelSets {
		for _, n := range []int{1024, 64} {
			for _, row0 := range []int{0, 1} {
				b.Run(fmt.Sprintf("kernel=%s/n=%d/row0=%d", k.name, n, row0), func(b *testing.B) {
					defer swapKernels(k)()
					for i := 0; i < b.N; i++ {
						m.AccumulateColumn(3, row0, dst[:n])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
				})
			}
		}
	}
}

// wrap truncates v to an n-bit value: two's complement for signed
// columns, modulo 2^n for unsigned ones, and the identity from 63 bits
// up, where the engine never wraps.
func wrap(v int64, n int, unsigned bool) int64 {
	if n >= 63 {
		return v
	}
	mask := int64(1)<<uint(n) - 1
	v &= mask
	if !unsigned && v&(1<<uint(n-1)) != 0 {
		v -= 1 << uint(n)
	}
	return v
}
