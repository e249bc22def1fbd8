package ap

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rtmap/internal/model"
	"rtmap/internal/quant"
)

// swapKernels makes k the kernel set the engine uses and returns what
// puts the previous one back.
func swapKernels(k kernelSet) func() {
	prev := kern
	kern = k
	return func() { kern = prev }
}

// eachKernel runs f once under each kernel set this CPU runs: the
// portable one always, the AVX2 one where the CPU has it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernelSets {
		t.Run("kernel="+k.name, func(t *testing.T) {
			defer swapKernels(k)()
			f(t)
		})
	}
}

// The engine uses the last kernel set the CPU runs: the AVX2 one
// wherever CPUID reports it.
func TestKernelSelection(t *testing.T) {
	names := make([]string, len(kernelSets))
	for i, k := range kernelSets {
		names[i] = k.name
	}
	t.Logf("%s: kernel sets %v", runtime.GOARCH, names)
	if kern.name != kernelSets[len(kernelSets)-1].name {
		t.Fatalf("the engine's kernel set is %s, not the last of %v", kern.name, names)
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

// At 16-bit lanes the movers hand every whole word to their kernels,
// which run vector blocks — 4 words a pack, 2 an accumulate — and leave
// the words after the last block to the Go twin. Runs of 0–12 whole
// words, so both reach the vector body and leave every tail after it
// (0–3 words after a pack block, 0–1 after an accumulate block), from
// every alignment of the first row and with 0, 1 or 3 rows past the last
// whole word, must equal one lane at a time under every kernel set.
func TestMoverVectorTails(t *testing.T) {
	p, plan := lanePlan(t, 16)
	const rows = 3 + 4*12 + 3 + 3
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(16, 0x7a11))
		var got, want Machine
		got.Reset(plan, rows)
		want.Reset(plan, rows)
		for col := 1; col < len(p.Cols); col++ {
			for words := 0; words <= 12; words++ {
				for row0 := 0; row0 < 4; row0++ {
					for _, tail := range []int{0, 1, 3} {
						n := (4-row0)%4 + 4*words + tail
						checkGridLoad(t, rng, &got, &want, p.Cols[col], col, row0, run1D(n, 1))
						acc, ref := make([]int32, n), make([]int32, n)
						for i := range acc {
							acc[i] = rng.Int32() >> 4
							ref[i] = acc[i] + int32(got.get(int32(col), row0+i))
						}
						got.AccumulateColumn(col, row0, acc)
						if !slices.Equal(acc, ref) {
							t.Fatalf("col %+v row0 %d n %d: accumulated %v, want %v", p.Cols[col], row0, n, acc, ref)
						}
					}
				}
			}
		}
	})
}

// Each kernel of every set touches only what its slices cover. Called on
// slices cut from longer backing arrays — sentinels past every length,
// one slice longer than the other covers — a kernel stores exactly the
// covered elements, each as the portable twin computes it from a copy
// with nothing past its end, and changes nothing else in either backing
// array. A read past a source's length would show too: the elements it
// reads feed only elements past the covered ones.
func TestKernelsStayInSlices(t *testing.T) {
	const rep, sentinel = 0x0001_0001_0001_0001, 0x5a5a_5a5a_5a5a_5a5a
	fmask, fsign, bias := 0xff*uint64(rep), 0x80*uint64(rep), 0x4000*uint64(rep)
	back32 := func(rng *rand.Rand, n int) []int32 {
		s := make([]int32, n+40)
		for i := range s {
			s[i] = 0x5a5a_5a5a
			if i < n {
				s[i] = int32(rng.Uint32()) >> rng.UintN(24)
			}
		}
		return s
	}
	back64 := func(rng *rand.Rand, n int) []uint64 {
		s := make([]uint64, n+10)
		for i := range s {
			s[i] = sentinel
			if i < n {
				s[i] = rng.Uint64() & 0x7fff_7fff_7fff_7fff // every lane below its spare bit
			}
		}
		return s
	}
	generic := kernelSets[0]
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(9, 10))
		for words := 0; words <= 13; words++ {
			for _, d := range []int{-1, 0, 1, 3} { // how much longer the source is than the words want
				nsrc := max(0, 4*words+d)
				// pack: words into dst, nsrc elements from src.
				dst, src := back64(rng, words), back32(rng, nsrc)
				want, src0 := slices.Clone(dst), slices.Clone(src)
				generic.pack(want[:words], slices.Clip(slices.Clone(src[:nsrc])), fmask, fsign, bias)
				kern.pack(dst[:words], src[:nsrc], fmask, fsign, bias)
				if !slices.Equal(dst, want) || !slices.Equal(src, src0) {
					t.Fatalf("pack %d words from %d elements: dst %x, want %x", words, nsrc, dst, want)
				}
				// accumulate: words from src, nsrc elements of dst.
				acc, lanes := back32(rng, nsrc), back64(rng, words)
				wantAcc, lanes0 := slices.Clone(acc), slices.Clone(lanes)
				generic.accumulate(wantAcc[:nsrc], slices.Clip(slices.Clone(lanes[:words])), 1<<14)
				kern.accumulate(acc[:nsrc], lanes[:words], 1<<14)
				if !slices.Equal(acc, wantAcc) || !slices.Equal(lanes, lanes0) {
					t.Fatalf("accumulate %d words into %d elements: dst %v, want %v", words, nsrc, acc, wantAcc)
				}
				// requantize: nsrc sums into 4·words codes.
				codes, sums := back32(rng, 4*words), back32(rng, nsrc)
				wantCodes, sums0 := slices.Clone(codes), slices.Clone(sums)
				generic.requantize(wantCodes[:4*words], slices.Clip(slices.Clone(sums[:nsrc])), 0.0123, -128, 127)
				kern.requantize(codes[:4*words], sums[:nsrc], 0.0123, -128, 127)
				if !slices.Equal(codes, wantCodes) || !slices.Equal(sums, sums0) {
					t.Fatalf("requantize %d sums into %d codes: dst %v, want %v", nsrc, 4*words, codes, wantCodes)
				}
			}
		}
	})
}

// The requantize kernel of every set equals model.RequantCode — the
// oracle's definition of one element — element by element: ReLU and
// signed-clamp modes over unsigned and signed grids of 2–8 bits; exact
// ties ±(n + 0.5) for even and odd n; sums that clamp at lo and at hi;
// products of |c·scale| ≥ 2^31, which both must take to the same clamp;
// runs of 0–9 elements and one long run.
func TestRequantizeMatchesRequantCode(t *testing.T) {
	special := []int32{0, 1, -1, 3, -3, 5, -5, 7, -7, 2, -2, 6, -6, 1000, -1000, 1 << 30, -1 << 30,
		math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	scales := []float64{0.5, 0.25, 0.0123, 1.0 / 3, 1, 2, 3.5, 1e6}
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(7, 8))
		ties, overflows := 0, 0
		for bits := 2; bits <= 8; bits++ {
			for _, signed := range []bool{false, true} {
				for _, relu := range []bool{true, false} {
					q := quant.Quantizer{Bits: bits, Step: 1, Signed: signed}
					lo, hi := q.Qn(), q.Qp()
					if relu {
						lo = 0
					}
					for _, scale := range scales {
						for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1031} {
							src := make([]int32, n)
							for i := range src {
								if i < len(special) && rng.IntN(2) == 0 {
									src[i] = special[rng.IntN(len(special))]
								} else {
									src[i] = int32(rng.Uint32()) >> rng.UintN(32)
								}
							}
							dst := make([]int32, n)
							Requantize(dst, src, scale, lo, hi)
							for i, c := range src {
								x := float64(c) * scale
								if x-math.Floor(x) == 0.5 {
									ties++
								}
								if math.Abs(x) >= 1<<31 {
									overflows++
								}
								if want := model.RequantCode(c, scale, q, relu); dst[i] != want {
									t.Fatalf("%v relu %v scale %g: %d requantizes to %d, RequantCode says %d", q, relu, scale, c, dst[i], want)
								}
							}
						}
					}
				}
			}
		}
		if ties == 0 || overflows == 0 {
			t.Fatalf("the sweep met %d exact ties and %d products past int32", ties, overflows)
		}
	})
}

// BenchmarkRequantize prices the engine's fused requantize per element
// over one vgg9 output channel (1 024 rows) and a short run, under each
// kernel set this CPU runs.
func BenchmarkRequantize(b *testing.B) {
	src := make([]int32, 1024)
	for i := range src {
		src[i] = int32(i*37 - 19000)
	}
	dst := make([]int32, len(src))
	for _, k := range kernelSets {
		for _, n := range []int{1024, 7} {
			b.Run(fmt.Sprintf("kernel=%s/n=%d", k.name, n), func(b *testing.B) {
				defer swapKernels(k)()
				for i := 0; i < b.N; i++ {
					Requantize(dst[:n], src[:n], 0.0123, 0, 15)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
