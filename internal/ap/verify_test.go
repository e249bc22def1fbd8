package ap

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// Opcode.String must be total (diagnostics format arbitrary byte values),
// and every consumer of an invalid opcode must report the same message.
func TestUnknownOpcodeUniformDiagnostics(t *testing.T) {
	if got := OpCopy.String(); got != "copy" {
		t.Fatalf("OpCopy.String() = %q, want \"copy\"", got)
	}
	bad := Opcode(97)
	if got := bad.String(); got != "op(97)" {
		t.Fatalf("Opcode(97).String() = %q, want \"op(97)\"", got)
	}

	const want = "unknown opcode op(97)"
	if got := errUnknownOpcode(bad).Error(); got != want {
		t.Fatalf("errUnknownOpcode = %q, want %q", got, want)
	}
	p := buildProgram([]int{4}, []bool{false})
	p.Instrs = []Instr{{Op: bad, Dst: 1, Width: 4}}
	errV := p.Validate()
	if errV == nil || !strings.HasSuffix(errV.Error(), want) {
		t.Fatalf("Validate() = %v, want suffix %q", errV, want)
	}
	if _, errP := NewExecPlan(p); errP == nil || !strings.HasSuffix(errP.Error(), want) {
		t.Fatalf("NewExecPlan() = %v, want suffix %q", errP, want)
	}
}

// AuditPlan must confirm every plan the real lowering produces: a clean
// compile is the verifier's zero-false-positive contract. Randomized
// programs cover multi-destination copies and every lane width.
func TestAuditPlanCleanOnRandomPrograms(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eed))
		p := randomProgram(rng, testLanes[trial%3])
		if p == nil {
			continue
		}
		plan, err := NewExecPlan(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if vs := AuditPlan(p, plan); len(vs) != 0 {
			t.Fatalf("trial %d: audit of a freshly compiled plan reported %d violations, first: %v\nprogram: %v",
				trial, len(vs), vs[0], p.Instrs)
		}
	}
}

// AuditPlan plan-level failures: nil plans and invalid source programs
// are rejected before any structural phase runs.
func TestAuditPlanRejectsBadInputs(t *testing.T) {
	p := buildProgram([]int{4}, []bool{false})
	if vs := AuditPlan(p, nil); len(vs) != 1 || vs[0].Invariant != InvProgram {
		t.Fatalf("nil plan: %v", vs)
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := buildProgram([]int{4}, []bool{false})
	bad.Instrs = []Instr{{Op: OpClear, Dst: 99, Width: 4}}
	vs := AuditPlan(bad, plan)
	if len(vs) != 1 || vs[0].Invariant != InvProgram || vs[0].Op != -1 {
		t.Fatalf("invalid program: %v", vs)
	}
	if !strings.Contains(vs[0].String(), InvProgram) {
		t.Fatalf("violation string %q does not name its invariant", vs[0].String())
	}
}

// clonePlan deep-copies a plan so a mutation cannot leak into the
// original (plans are shared, immutable artifacts).
func clonePlan(p *ExecPlan) *ExecPlan {
	q := &ExecPlan{
		cols:  append([]Col(nil), p.cols...),
		fmts:  append([]uint8(nil), p.fmts...),
		slot:  append([]int32(nil), p.slot...),
		slots: p.slots,
		ops:   append([]planOp(nil), p.ops...),
		esc:   append([]escOp(nil), p.esc...),
		zero:  append([]int32(nil), p.zero...),
		lane:  p.lane,
	}
	for _, m := range p.multi {
		q.multi = append(q.multi, append([]copyDst(nil), m...))
	}
	return q
}

// planMutation is one single-op corruption operator. apply mutates plan,
// the lowering of p, in place and reports whether the operator was
// applicable; rng picks the target op.
type planMutation struct {
	name  string
	apply func(rng *rand.Rand, p *Program, plan *ExecPlan) bool
}

func isFast(op planOp) bool { return op.dst&opEsc == 0 }

// mutateOp applies edit to the full form of a random op satisfying ok and
// re-encodes the stream the way the lowering would (emit), so a corrupted
// field lands wherever the encoding keeps it — an add that becomes a
// clear moves into the side table, a may-wrap add claimed wide becomes a
// fast op. A fast op stores neither width nor flags, so operators on
// those pick among the escapes.
func mutateOp(rng *rand.Rand, p *Program, plan *ExecPlan, ok func(op escOp, fast bool) bool, edit func(*escOp)) bool {
	full := decodeAll(p, plan)
	var cand []int
	for i := range full {
		if ok(full[i], isFast(plan.ops[i])) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return false
	}
	edit(&full[cand[rng.IntN(len(cand))]])
	reencode(plan, full)
	return true
}

// decodeAll and reencode take a plan's stream to its full forms, fast
// ops' widths included, and back the way the lowering encodes it.
func decodeAll(p *Program, plan *ExecPlan) []escOp {
	full := make([]escOp, len(plan.ops))
	for i := range full {
		full[i] = plan.full(p, i)
	}
	return full
}

func reencode(plan *ExecPlan, full []escOp) {
	plan.ops, plan.esc = nil, nil
	for _, op := range full {
		plan.emit(op)
	}
}

// remap moves column c of p to slot s and rewrites every op that names c
// to match, the zero set too: the slot table and the stream agree, so
// only the liveness audit can object.
func remap(p *Program, plan *ExecPlan, c int, s int32) {
	old, full := plan.slot[c], decodeAll(p, plan)
	plan.slot[c] = s
	for i, ins := range p.Instrs {
		op := &full[i]
		if ins.Dst == c {
			op.dst = s
		}
		if ins.Op != OpClear && ins.A == c {
			op.a = s
		}
		if (ins.Op == OpAdd || ins.Op == OpSub) && ins.B == c {
			op.b = s
		}
		if op.kind == planCopyMulti {
			for k, d := range append([]int{ins.Dst}, p.ExtraDsts(&ins)...) {
				if d == c {
					plan.multi[op.ext][k].col = s
				}
			}
		}
	}
	reencode(plan, full)
	for k, z := range plan.zero {
		if z == old {
			plan.zero[k] = s
		}
	}
}

// liveSpans gives each column the op of its first write and of its last
// read, -1 where it has none: the columns a slot mutation can collide.
func liveSpans(p *Program) (first, last []int) {
	first, last = make([]int, len(p.Cols)), make([]int, len(p.Cols))
	for c := range first {
		first[c], last[c] = -1, -1
	}
	for i, ins := range p.Instrs {
		switch ins.Op {
		case OpAdd, OpSub:
			last[ins.A], last[ins.B] = i, i
		case OpNeg, OpCopy:
			last[ins.A] = i
		case OpClear:
		}
		for _, c := range append([]int{ins.Dst}, p.ExtraDsts(&ins)...) {
			if first[c] < 0 {
				first[c] = i
			}
		}
	}
	return first, last
}

// pickRaw returns the index of a random op of the encoded stream
// satisfying ok, or -1: the operators that corrupt the encoding itself.
func pickRaw(rng *rand.Rand, plan *ExecPlan, ok func(i int) bool) int {
	var cand []int
	for i := range plan.ops {
		if ok(i) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[rng.IntN(len(cand))]
}

func anyOp(escOp, bool) bool { return true }

// planMutations are the corruption operators of the mutation harness —
// each models a distinct compiler-bug class the verifier must catch:
// mis-lowered opcodes, perturbed operand wiring, unsound wrap-elision
// and lane-width claims, corrupted flags/side tables, dropped reset
// tracking, and — on the encoded stream itself — a flipped sign bit, a
// mis-numbered or dirty escape and reordered fast ops.
var planMutations = []planMutation{
	{"flip-kind", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, anyOp, func(op *escOp) {
			op.kind = planKind((uint8(op.kind) + 1 + uint8(rng.IntN(5))) % 6)
		})
	}},
	{"invalid-kind", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, anyOp, func(op *escOp) { op.kind = planKind(6 + rng.IntN(8)) })
	}},
	{"perturb-dst", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, anyOp, func(op *escOp) { op.dst = (op.dst + 1) % int32(plan.slots) })
	}},
	{"perturb-a", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(op escOp, _ bool) bool { return op.kind != planClear },
			func(op *escOp) { op.a = (op.a + 1) % int32(plan.slots) })
	}},
	{"perturb-b", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(op escOp, _ bool) bool { return op.kind == planAdd || op.kind == planSub },
			func(op *escOp) { op.b = (op.b + 1) % int32(plan.slots) })
	}},
	{"perturb-width", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(op escOp, fast bool) bool { return !fast && op.width > 1 },
			func(op *escOp) { op.width-- })
	}},
	// Widen a claimed range: assert wrap-elision on an op the compiler's
	// own analysis could not prove wrap-free.
	{"claim-wide", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(op escOp, _ bool) bool { return !op.wide() && op.kind != planClear },
			func(op *escOp) { op.flags |= flagWide })
	}},
	// The same claim where it costs most: a may-wrap add/sub promoted to
	// a fast op, which Run executes with no wrap and nothing to decode.
	{"claim-fast", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(op escOp, _ bool) bool {
			return !op.wide() && (op.kind == planAdd || op.kind == planSub)
		}, func(op *escOp) { op.flags |= flagWide })
	}},
	// Drop the mandatory wide flag of a ≥63-bit op, whose truncating
	// wrap constants corrupt the top bits (a fast op goes to the side
	// table with it).
	{"drop-wide", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(op escOp, _ bool) bool { return op.wide() && op.width >= 63 },
			func(op *escOp) { op.flags &^= flagWide })
	}},
	{"flip-sign-flag", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		return mutateOp(rng, p, plan, func(_ escOp, fast bool) bool { return !fast },
			func(op *escOp) { op.flags ^= flagUnsigned })
	}},
	// Narrow the lanes: claim the plan's values fit half the width the
	// range analysis sized them to, so a carry crosses into the next row.
	{"narrow-lane", func(_ *rand.Rand, _ *Program, plan *ExecPlan) bool {
		plan.lane /= 2
		return true
	}},
	{"perturb-multi-dst", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		if len(plan.multi) == 0 {
			return false
		}
		dsts := plan.multi[rng.IntN(len(plan.multi))]
		k := rng.IntN(len(dsts))
		dsts[k].col = (dsts[k].col + 1) % int32(plan.slots)
		return true
	}},
	{"drop-op", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		if len(plan.ops) == 0 {
			return false
		}
		i := rng.IntN(len(plan.ops))
		plan.ops = append(plan.ops[:i], plan.ops[i+1:]...)
		return true
	}},
	// Drop a reset: remove one column from the zero set, leaking stale
	// arena rows into the next execution.
	{"drop-zero", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		if len(plan.zero) == 0 {
			return false
		}
		i := rng.IntN(len(plan.zero))
		plan.zero = append(plan.zero[:i], plan.zero[i+1:]...)
		return true
	}},
	// Lie about a load format: a column's entry in the format table loses
	// a bit of width or flips its signedness, so every load wraps it wrong.
	{"lie-load-format", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		c := 1 + rng.IntN(len(plan.fmts)-1)
		if rng.IntN(2) == 0 {
			plan.fmts[c]--
		} else {
			plan.fmts[c] ^= fmtUnsigned
		}
		return true
	}},
	// The encoded stream itself. A fast op's sign is one bit of a.
	{"flip-sub-bit", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		i := pickRaw(rng, plan, func(i int) bool { return isFast(plan.ops[i]) })
		if i < 0 {
			return false
		}
		plan.ops[i].a ^= opSub
		return true
	}},
	// Point an escape at another side-table entry: one op runs twice (or
	// in the wrong place) and one not at all.
	{"retarget-escape", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		i := pickRaw(rng, plan, func(i int) bool { return !isFast(plan.ops[i]) })
		if i < 0 || len(plan.esc) < 2 {
			return false
		}
		plan.ops[i].dst = opEsc | (plan.ops[i].dst&^opEsc+1+uint32(rng.IntN(len(plan.esc)-1)))%uint32(len(plan.esc))
		return true
	}},
	// Operand fields of an escape are dead to Run; the audit still wants
	// them zero, so a decoder that one day reads them cannot be surprised.
	{"dirty-escape", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		i := pickRaw(rng, plan, func(i int) bool { return !isFast(plan.ops[i]) })
		if i < 0 {
			return false
		}
		if rng.IntN(2) == 0 {
			plan.ops[i].a = 1 + uint32(rng.IntN(len(plan.cols)))
		} else {
			plan.ops[i].b = 1 + uint32(rng.IntN(len(plan.cols)))
		}
		return true
	}},
	// Swap two adjacent fast ops of which the second reads or rewrites
	// what the first wrote.
	{"swap-dependent", func(rng *rand.Rand, _ *Program, plan *ExecPlan) bool {
		i := pickRaw(rng, plan, func(i int) bool {
			if i+1 >= len(plan.ops) || !isFast(plan.ops[i]) || !isFast(plan.ops[i+1]) {
				return false
			}
			p, q := plan.ops[i], plan.ops[i+1]
			return p != q && (q.a&^opSub == p.dst || q.b == p.dst || q.dst == p.dst)
		})
		if i < 0 {
			return false
		}
		plan.ops[i], plan.ops[i+1] = plan.ops[i+1], plan.ops[i]
		return true
	}},
	// The slot map. Two temps whose lives overlap share one slot, every
	// op renamed to match: one overwrites the other before its last read.
	{"merge-temps", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		first, last := liveSpans(p)
		var pairs [][2]int
		for a := range p.Cols {
			for b := range p.Cols {
				if p.Cols[a].Temp && p.Cols[b].Temp && a != b && plan.slot[a] != plan.slot[b] &&
					first[a] >= 0 && first[a] <= first[b] && first[b] <= last[a] {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		if len(pairs) == 0 {
			return false
		}
		pr := pairs[rng.IntN(len(pairs))]
		remap(p, plan, pr[1], plan.slot[pr[0]])
		return true
	}},
	// A column the caller loads or reads — an accumulator, say — stored
	// in a temp's slot.
	{"acc-onto-temp", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		var accs, temps []int
		for c := 1; c < len(p.Cols); c++ {
			if p.Cols[c].Temp {
				temps = append(temps, c)
			} else {
				accs = append(accs, c)
			}
		}
		if len(temps) == 0 || len(accs) == 0 {
			return false
		}
		remap(p, plan, accs[rng.IntN(len(accs))], plan.slot[temps[rng.IntN(len(temps))]])
		return true
	}},
	// An operand read from a slot no live column holds: one a temp left
	// before the op, or one no temp has reached yet.
	{"operand-to-freed-slot", func(rng *rand.Rand, p *Program, plan *ExecPlan) bool {
		first, last := liveSpans(p)
		type cand struct {
			op   int
			slot int32
		}
		var cands []cand
		for i, ins := range p.Instrs {
			if ins.Op == OpClear {
				continue
			}
			for s := int32(0); s < int32(plan.slots); s++ {
				free := s != plan.slot[ins.A]
				for c := range p.Cols {
					if plan.slot[c] == s && (!p.Cols[c].Temp || first[c] <= i && i <= last[c]) {
						free = false
					}
				}
				if free {
					cands = append(cands, cand{i, s})
				}
			}
		}
		if len(cands) == 0 {
			return false
		}
		c := cands[rng.IntN(len(cands))]
		full := decodeAll(p, plan)
		full[c.op].a = c.slot
		reencode(plan, full)
		return true
	}},
}

// plansEquivalent proves a mutant that passed the audit is semantically
// harmless: both plans, executed over identical random loads on fresh
// machines, must produce bit-identical values in every column. An
// audit-clean mutant is guaranteed structurally sound, so running it
// cannot fault.
func plansEquivalent(t *testing.T, rng *rand.Rand, p *Program, orig, mut *ExecPlan) bool {
	t.Helper()
	const rows = 5
	var mo, mm Machine
	mo.Reset(orig, rows, nil)
	mm.Reset(mut, rows, nil)
	vals := loadRandom(rng, p, rows)
	v32 := make([]int32, rows)
	for c := 1; c < len(p.Cols); c++ {
		if p.Cols[c].Temp {
			continue // a temp is the program's own scratch: no one loads it
		}
		for r, v := range vals[c] {
			v32[r] = int32(v)
		}
		setRows(&mo, c, 0, v32)
		setRows(&mm, c, 0, v32)
	}
	mo.Run()
	mm.Run()
	for c := range p.Cols {
		if p.Cols[c].Temp {
			continue // undefined after its last reference
		}
		want, got := mo.Column(c), mm.Column(c)
		for r := 0; r < rows; r++ {
			if want[r] != got[r] {
				return false
			}
		}
	}
	return true
}

// Mutation test of the verifier: inject single-op corruptions into
// known-good plans and require AuditPlan to catch ≥99.8% of them. The few
// escapees must each be proved semantically harmless (bit-identical
// execution against the original plan) and are logged with their
// operator, so every survivor is enumerated and justified. Each trial
// mutates a random program and, where it has write-before-read columns to
// mark, its twin with temps: the slot operators need temps, and every
// other operator must hold where the slots are shared.
func TestAuditPlanCatchesMutations(t *testing.T) {
	total, caught := 0, 0
	escapees := map[string]int{}
	slotMutants := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xbadc0de))
		p := randomProgram(rng, testLanes[trial%3])
		if p == nil {
			continue
		}
		for _, p := range []*Program{p, withTemps(rng, p)} {
			if p == nil {
				continue
			}
			orig, err := NewExecPlan(p)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, mu := range planMutations {
				mut := clonePlan(orig)
				if !mu.apply(rng, p, mut) {
					continue
				}
				total++
				vs := AuditPlan(p, mut)
				for _, v := range vs {
					if v.Invariant == InvSlots {
						slotMutants[mu.name]++
						break
					}
				}
				if len(vs) > 0 {
					caught++
					continue
				}
				// Escapee: only a provably harmless mutation may survive.
				escapees[mu.name]++
				if !plansEquivalent(t, rng, p, orig, mut) {
					t.Fatalf("trial %d: %s mutant passed the audit but diverges from the original plan\nprogram: %v",
						trial, mu.name, p.Instrs)
				}
			}
		}
	}
	// The slot operators must be caught as what they break, and often
	// enough to mean it.
	for _, name := range []string{"merge-temps", "acc-onto-temp", "operand-to-freed-slot"} {
		if slotMutants[name] < 20 {
			t.Fatalf("%s: %d mutants reported a slot violation, want ≥ 20 (by operator: %v)", name, slotMutants[name], slotMutants)
		}
	}
	if total < 1300 {
		t.Fatalf("mutation harness generated only %d mutants; generator regressed", total)
	}
	rate := float64(caught) / float64(total)
	t.Logf("caught %d/%d mutants (%.1f%%); harmless escapees by operator: %v; slot violations by operator: %v",
		caught, total, 100*rate, escapees, slotMutants)
	for name := range escapees {
		// Operators whose corruption can fall in the machine's dead space
		// (op.dst of a multi-copy is ignored by Run; a wide claim the
		// audit can independently re-prove is a true no-op). Anything
		// else escaping means a verifier hole.
		if name != "perturb-dst" && name != "claim-wide" {
			t.Fatalf("operator %s produced an unexpected escapee class", name)
		}
	}
	if rate < 0.998 {
		t.Fatalf("mutation catch rate %.2f%% < 99.8%% (%d/%d)", 100*rate, caught, total)
	}
}
