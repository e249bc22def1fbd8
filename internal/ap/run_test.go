package ap

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// swapKernel makes k the kernel Run uses and returns what puts the
// previous one back.
func swapKernel(k fastKernel) func() {
	prev := runFast
	runFast = k
	return func() { runFast = prev }
}

// eachKernel runs f once under each fast-op kernel this CPU runs: the
// portable one always, the AVX2 one where the CPU has it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range fastKernels {
		t.Run("kernel="+k.name, func(t *testing.T) {
			defer swapKernel(k.run)()
			f(t)
		})
	}
}

// Run uses the last kernel the CPU runs: the AVX2 one wherever CPUID
// reports it.
func TestKernelSelection(t *testing.T) {
	names := make([]string, len(fastKernels))
	for i, k := range fastKernels {
		names[i] = k.name
	}
	t.Logf("%s: kernels %v", runtime.GOARCH, names)
	if reflect.ValueOf(runFast).Pointer() != reflect.ValueOf(fastKernels[len(fastKernels)-1].run).Pointer() {
		t.Fatalf("Run's kernel is not the last of %v", names)
	}
}

// guardedMachine is a machine over plan whose arena sits at the front of
// a larger backing array: every word, in the arena and past it, starts
// as a sentinel, so a write outside the slots an op names shows.
func guardedMachine(plan *ExecPlan, rows int, vals map[int][]int32) *Machine {
	m := &Machine{flat: make([]uint64, 0, plan.Slots()*rows+64)} // a slot holds at most rows words
	fill(m.flat[:cap(m.flat)], 0x5a5a_5a5a_5a5a_5a5a)
	m.Reset(plan, rows)
	for c, v := range vals {
		setRows(m, c, 0, v)
	}
	return m
}

// A fast op that names a slot outside the arena cannot come out of
// NewExecPlan, but Run must fail on one as Go's bounds checks fail,
// under every kernel: the ops before it run, it panics with a runtime
// bounds error, and no word outside the slots of the ops before it
// changes — in the arena or past its end in the backing array.
func TestRunPanicsOnSlotOutsideArena(t *testing.T) {
	// carry, x1, x2 (8 bits), d1, d2, d3 (14 bits).
	p := buildProgram([]int{8, 8, 14, 14, 14}, make([]bool, 5))
	const x1, x2, d1, d2, d3 = 1, 2, 3, 4, 5
	p.Instrs = []Instr{
		{Op: OpAdd, Dst: d1, A: x1, B: x2, Width: 14},
		{Op: OpSub, Dst: d2, A: x1, B: x2, Width: 14},
		{Op: OpAdd, Dst: d3, A: d1, B: d2, Width: 14},
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.ops {
		if !isFast(op) {
			t.Fatalf("op %+v lowered to an escape", op)
		}
	}
	slots := uint32(plan.Slots())
	type field struct {
		name string
		set  func(op *planOp, s uint32)
		max  uint32
	}
	fields := []field{
		{"dst", func(op *planOp, s uint32) { op.dst = s }, 1<<31 - 1},
		{"a", func(op *planOp, s uint32) { op.a = op.a&opSub | s }, 1<<31 - 1},
		{"b", func(op *planOp, s uint32) { op.b = s }, 1<<32 - 1},
	}
	eachKernel(t, func(t *testing.T) {
		for _, words := range []int{1, 3, 8, 9} {
			rows := words * 4
			vals := map[int][]int32{x1: make([]int32, rows), x2: make([]int32, rows)}
			for r := range rows {
				vals[x1][r], vals[x2][r] = int32(r%256-128), int32(100-r%200)
			}
			// want is the backing array after the first op alone.
			head := *plan
			head.ops = plan.ops[:1]
			ref := guardedMachine(&head, rows, vals)
			ref.Run()
			want := ref.flat[:cap(ref.flat)]
			for _, f := range fields {
				for _, s := range []uint32{slots, slots + 1, f.max} {
					bad := *plan
					bad.ops = slices.Clone(plan.ops)
					f.set(&bad.ops[1], s)
					m := guardedMachine(&bad, rows, vals)
					func() {
						defer func() {
							r := recover()
							e, ok := r.(runtime.Error)
							if !ok || !strings.Contains(e.Error(), "out of range") {
								t.Fatalf("words %d, %s = %d: Run recovered %v, want a bounds error", words, f.name, s, r)
							}
						}()
						m.Run()
					}()
					if got := m.flat[:cap(m.flat)]; !slices.Equal(got, want) {
						i := 0
						for got[i] == want[i] {
							i++
						}
						t.Fatalf("words %d, %s = %d: word %d of %d (arena %d) is %#x, want %#x",
							words, f.name, s, i, len(got), len(m.flat), got[i], want[i])
					}
				}
			}
		}
	})
}

// Run enters the kernel at most runChunk ops a call, so an escape can
// end a chunk, start one or sit one op inside it. A plan three chunks
// long with escapes at and beside each boundary — and one more run that
// crosses a boundary unbroken — must match Exec under every kernel.
func TestRunAcrossChunks(t *testing.T) {
	const nIn, nAcc = 6, 4
	widths := make([]int, nIn+nAcc)
	for i := range widths {
		widths[i] = 6
		if i >= nIn {
			widths[i] = 14
		}
	}
	p := buildProgram(widths, make([]bool, len(widths)))
	esc := map[int]bool{}
	for _, b := range []int{runChunk, 2 * runChunk} {
		esc[b-1], esc[b], esc[b+1] = true, true, true
	}
	esc[3*runChunk-2] = true
	rng := rand.New(rand.NewPCG(3, 4))
	in := func() int { return 1 + rng.IntN(nIn) }
	for i := range 3*runChunk + 7 {
		acc := 1 + nIn + i%nAcc
		switch {
		case esc[i]:
			p.Instrs = append(p.Instrs, Instr{Op: OpCopy, Dst: acc, A: in(), Width: 14})
		case i/nAcc%16 == 0:
			// Restart the accumulator out of place every 16 rounds, so
			// its range stays provable: |acc| ≤ 17·32 < 2^13.
			p.Instrs = append(p.Instrs, Instr{Op: [...]Opcode{OpAdd, OpSub}[rng.IntN(2)], Dst: acc, A: in(), B: in(), Width: 14})
		default:
			p.Instrs = append(p.Instrs, Instr{Op: [...]Opcode{OpAdd, OpSub}[rng.IntN(2)], Dst: acc, A: in(), B: acc, InPlace: true, Width: 14})
		}
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range plan.ops {
		if isFast(op) == esc[i] {
			t.Fatalf("op %d: fast %v, want %v", i, isFast(op), !esc[i])
		}
	}
	eachKernel(t, func(t *testing.T) {
		for _, words := range []int{1, 8, 9, 64} {
			rows := words * 4
			vals := loadRandom(rng, p, rows)
			var m Machine
			m.Reset(plan, rows)
			v32 := make([]int32, rows)
			for c := 1; c <= nIn; c++ {
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
			for c := 1 + nIn; c < len(p.Cols); c++ {
				if got := m.Column(c); !slices.Equal(got, want[c]) {
					t.Fatalf("words %d: column %d = %v, want %v", words, c, got[:4], want[c][:4])
				}
			}
		}
	})
}

// Run allocates nothing under any kernel, whether a plan's runs fit one
// chunk or span several.
func TestRunAllocFree(t *testing.T) {
	plan := benchRunPlan(t, 3*runChunk)
	eachKernel(t, func(t *testing.T) {
		for _, words := range []int{1, 8, 64} {
			var m Machine
			m.Reset(plan, words*4)
			if n := testing.AllocsPerRun(10, m.Run); n != 0 {
				t.Fatalf("words %d: Run allocates %v times", words, n)
			}
		}
	})
}
