package ap

import "fmt"

// This file is the static plan verifier: an independent audit of the
// guarantees NewExecPlan's lowering and analyses claim. The execution
// engine is fast precisely because those analyses elide work — ~99% of
// ops run as unmasked word arithmetic over packed lanes on the strength
// of the value-range analysis, the lanes are as narrow as that analysis
// allows, and Machine.Reset clears only the zero set — so a compiler
// bug here corrupts inference results silently instead of failing. The
// auditor re-derives every claim from the source program with separately
// written analyses and reports structured violations, so a bad plan is
// rejected at compile/admit time, never served.
//
// The audit models the *machine*, not the compiler: it propagates the
// value intervals Machine.Run actually produces (wide ops keep their
// exact interval, truncating ops collapse to their destination's stored
// format) and checks each claimed elision against them. It deliberately
// shares no code with the lowering's range analysis or assignSlots beyond
// the plan layout itself: the op encoding, which auditStructure checks
// raw, and at, its decoder — so the audit reads the array Run executes.
// Op i is instruction i: the ops name slots, and the audit takes each
// op's columns from its instruction once it has proved the op's slots are
// theirs (InvSlots), so the value analyses run over the program's columns
// with the plan's claims.

// Invariant classes reported by AuditPlan.
const (
	// InvProgram: the source program fails structural validation.
	InvProgram = "program"
	// InvBounds: a column or side-table reference is out of range, or the
	// escapes do not number the side table in program order.
	InvBounds = "bounds"
	// InvWidth: an op's width disagrees with its destination column.
	InvWidth = "width"
	// InvFlags: an op's flags are inconsistent with its destination
	// metadata (signedness flag, or a ≥63-bit op missing the wide flag,
	// whose mask math would corrupt bits 63..64).
	InvFlags = "flags"
	// InvCoverage: an op kind falls outside the interpreter's opcode
	// set — the exhaustiveness guarantee of the dispatch switch — or a
	// wide Add/Sub sits in the side table, where Run does not look for it.
	InvCoverage = "coverage"
	// InvAliasing: a destination aliases a column the same op still
	// reads, so the one-pass execution diverges from the sequential
	// semantics.
	InvAliasing = "aliasing"
	// InvCorrespondence: the op stream does not correspond to the
	// source program under the documented one-instruction-one-op
	// lowering.
	InvCorrespondence = "correspondence"
	// InvSlots: the slot map does not store the program: a column that
	// must own its slot (every non-temp column, and a temp read before it
	// is written) shares it, an op writes a slot while another column
	// that lives there is still to be read, or an op's slots are not the
	// slot-table images of its instruction's columns.
	InvSlots = "slots"
	// InvMaskElision: an op claims wrapping is the identity but the
	// re-derived value intervals cannot prove it.
	InvMaskElision = "mask-elision"
	// InvZeroSet: a column is read before any op writes it but its slot
	// is missing from the reset set, so arena reuse leaks stale rows.
	InvZeroSet = "zero-set"
	// InvLane: the plan's lane width is not one the machine packs, or
	// some column's entry band or some op's result does not fit a lane
	// minus its guard bit — a carry would cross into the neighbouring
	// row.
	InvLane = "lane"
	// InvFormat: a column's load format disagrees with its metadata.
	InvFormat = "format"
	// InvParts: a program cut at its fragment boundaries does not run as
	// independent parts (AuditParts).
	InvParts = "parts"
)

// Violation is one invariant failure found by AuditPlan. Op is the plan
// op index the violation anchors to (-1 for plan-level failures).
type Violation struct {
	Op        int
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("op %d: %s: %s", v.Op, v.Invariant, v.Detail)
}

// AuditPlan independently re-checks plan against its source program.
// It proves, without trusting the lowering that built the plan:
//
//   - structural soundness: every column, side-table and width reference
//     is in bounds and consistent with the column table, as is each load
//     format (InvFormat), the escapes of the op stream number the side
//     table in program order (InvBounds, InvWidth, InvFlags), op kinds are
//     within the interpreter's dispatch set (InvCoverage), and no op's
//     destination aliases a column it still reads (InvAliasing);
//   - correspondence: the op stream is exactly what the documented
//     lowering produces from p, one op per instruction
//     (InvCorrespondence), over the slots the slot table gives the
//     instruction's columns (InvSlots);
//   - slots: by liveness re-derived from p, every column that must keep
//     its own storage owns its slot, and no op overwrites a value still
//     to be read (InvSlots);
//   - mask elision: every op flagged wide provably never wraps, by a
//     re-derived interval analysis over the machine's semantics
//     (InvMaskElision);
//   - lane width: by the same re-derived intervals, every value a column
//     can hold — at entry and after every op — fits the plan's lane with
//     its guard bit to spare (InvLane);
//   - zero-set soundness: the slot of every column read before it is
//     written is in the plan's reset set (InvZeroSet).
//
// A nil return means the plan is proved consistent with p under all six
// invariant families. Structural violations abort the audit early (the
// later analyses would index out of bounds); the remaining families are
// all checked so one pass reports every independent failure.
func AuditPlan(p *Program, plan *ExecPlan) []Violation {
	if plan == nil {
		return []Violation{{Op: -1, Invariant: InvProgram, Detail: "nil plan"}}
	}
	if err := p.Validate(); err != nil {
		return []Violation{{Op: -1, Invariant: InvProgram, Detail: err.Error()}}
	}
	if vs := plan.auditStructure(p); len(vs) > 0 {
		return vs
	}
	lv := auditLive(p)
	var out []Violation
	out = append(out, plan.auditCorrespondence(p)...)
	out = append(out, plan.auditSlots(p, lv)...)
	out = append(out, plan.auditRanges(p)...)
	out = append(out, plan.auditZeroSet(p, lv)...)
	return out
}

// auditOperands lists the columns ins reads, then those it writes, in
// buf, and returns them with the count of reads: the audit's own reading
// of the ISA's operand roles.
func auditOperands(ins *Instr, buf []int) ([]int, int) {
	buf = buf[:0]
	switch ins.Op {
	case OpAdd, OpSub:
		buf = append(buf, ins.A, ins.B)
	case OpNeg, OpCopy:
		buf = append(buf, ins.A)
	case OpClear:
	}
	reads := len(buf)
	buf = append(buf, ins.Dst)
	if ins.Op == OpCopy {
		buf = append(buf, ins.Dsts...)
	}
	return buf, reads
}

// auditLiveness is what the slot and zero-set audits need to know of the
// program's dataflow: per column, the op of its first read if that comes
// before any write (-1 if none: the column is not live at entry), and the
// op of its last read (-1 if never read).
type auditLiveness struct {
	entry, lastRead []int
}

func auditLive(p *Program) auditLiveness {
	lv := auditLiveness{entry: make([]int, len(p.Cols)), lastRead: make([]int, len(p.Cols))}
	written := make([]bool, len(p.Cols))
	for c := range p.Cols {
		lv.entry[c], lv.lastRead[c] = -1, -1
	}
	var buf []int
	for i := range p.Instrs {
		cols, reads := auditOperands(&p.Instrs[i], buf)
		for _, c := range cols[:reads] {
			if !written[c] && lv.entry[c] < 0 {
				lv.entry[c] = i
			}
			lv.lastRead[c] = i
		}
		for _, c := range cols[reads:] {
			written[c] = true
		}
		buf = cols
	}
	return lv
}

// auditStructure checks bounds, widths, flags, side tables, opcode
// coverage and intra-op aliasing. Everything later phases index through
// is validated here, so they can run without defensive checks.
func (plan *ExecPlan) auditStructure(p *Program) []Violation {
	var out []Violation
	bad := func(op int, inv, format string, args ...any) {
		out = append(out, Violation{Op: op, Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	if len(plan.cols) != len(p.Cols) {
		bad(-1, InvBounds, "plan has %d columns, program has %d", len(plan.cols), len(p.Cols))
		return out
	}
	for c, col := range plan.cols {
		if col != p.Cols[c] {
			bad(-1, InvBounds, "column %d metadata %+v differs from program %+v", c, col, p.Cols[c])
			return out
		}
		if c >= len(plan.fmts) || int(plan.fmts[c]&^fmtUnsigned) != min(col.Width, 64) ||
			(plan.fmts[c]&fmtUnsigned != 0) != col.Unsigned {
			bad(-1, InvFormat, "column %d of %d has no load format or one that disagrees with %+v", c, len(plan.fmts), col)
		}
	}
	if len(plan.slot) != len(plan.cols) {
		bad(-1, InvBounds, "slot table has %d entries for %d columns", len(plan.slot), len(plan.cols))
		return out
	}
	nslots := int32(plan.slots)
	slotOK := func(s int32) bool { return s >= 0 && s < nslots }
	for c, s := range plan.slot {
		if !slotOK(s) {
			bad(-1, InvBounds, "column %d in slot %d outside 0..%d", c, s, nslots-1)
		}
	}
	for _, z := range plan.zero {
		if !slotOK(z) {
			bad(-1, InvBounds, "zero-set slot %d outside 0..%d", z, nslots-1)
		}
	}
	if plan.lane != 16 && plan.lane != 32 && plan.lane != 64 {
		bad(-1, InvLane, "lane width %d is not 16, 32 or 64", plan.lane)
	}

	// The raw encoding first, so at can decode everything below: a fast
	// op's three columns, and escapes that number the side table in
	// program order, so each entry runs once, where the program has it.
	nesc := 0
	for i, raw := range plan.ops {
		if raw.dst&opEsc == 0 {
			if !slotOK(int32(raw.dst)) || !slotOK(int32(raw.a&^opSub)) || !slotOK(int32(raw.b)) {
				bad(i, InvBounds, "fast op %v names a slot outside 0..%d", raw, nslots-1)
			}
			continue
		}
		if raw != (planOp{dst: opEsc | uint32(nesc)}) || nesc >= len(plan.esc) {
			bad(i, InvBounds, "escape %v is not the bare index %d of a %d-op side table", raw, nesc, len(plan.esc))
		}
		nesc++
	}
	if nesc != len(plan.esc) {
		bad(-1, InvBounds, "side table holds %d ops, the stream escapes %d times", len(plan.esc), nesc)
	}
	// Op i must be instruction i for anything below to compare them.
	if len(plan.ops) != len(p.Instrs) {
		bad(-1, InvCorrespondence, "plan has %d ops, lowering of the program produces %d", len(plan.ops), len(p.Instrs))
	}
	if len(out) > 0 {
		return out
	}

	for i := range plan.ops {
		op := plan.full(p, i)
		if !slotOK(op.dst) {
			bad(i, InvBounds, "destination slot %d outside 0..%d", op.dst, nslots-1)
			continue
		}
		// The destination's declared width, clamped the way the
		// lowering clamps it into the op encoding.
		dst := p.Cols[p.Instrs[i].Dst]
		wantW := dst.Width
		if wantW > 64 {
			wantW = 64
		}
		if int(op.width) != wantW {
			bad(i, InvWidth, "op width %d != destination column width %d", op.width, wantW)
		}
		// A ≥63-bit op must be wide: the engine never wraps there, but
		// the mask/sign constants of the truncating path are only
		// meaningful below 63 bits.
		if dst.Width >= 63 && !op.wide() {
			bad(i, InvFlags, "%d-bit op is not flagged wide; its wrap constants corrupt the top bits", dst.Width)
		}

		readsA := true
		switch op.kind {
		case planClear:
			readsA = false
		case planCopy, planNeg:
		case planAdd, planSub:
			if !slotOK(op.b) {
				bad(i, InvBounds, "operand B slot %d outside 0..%d", op.b, nslots-1)
			}
			if op.wide() && plan.ops[i].dst&opEsc != 0 {
				bad(i, InvCoverage, "wide add/sub in the side table, which Run executes only as a fast op")
			}
		case planCopyMulti:
			if op.ext < 0 || int(op.ext) >= len(plan.multi) {
				bad(i, InvBounds, "multi-copy side table index %d outside 0..%d", op.ext, len(plan.multi)-1)
				continue
			}
			for _, cd := range plan.multi[op.ext] {
				if !slotOK(cd.col) {
					bad(i, InvBounds, "multi-copy destination slot %d outside 0..%d", cd.col, nslots-1)
					continue
				}
				if slotOK(op.a) && cd.col == op.a {
					bad(i, InvAliasing, "multi-copy destination slot %d aliases the source", cd.col)
				}
			}
		default:
			// Exhaustive opcode coverage: a kind the interpreter's
			// dispatch switch does not know silently executes as a no-op.
			bad(i, InvCoverage, "op kind %d outside the interpreter's dispatch set", op.kind)
			continue
		}

		if readsA && !slotOK(op.a) {
			bad(i, InvBounds, "operand A slot %d outside 0..%d", op.a, nslots-1)
			continue
		}
		// Signedness flag: copies wrap with the destination's declared
		// signedness; everything else wraps signed and must not carry
		// the flag.
		switch op.kind {
		case planCopy, planCopyMulti:
			if op.unsigned() != dst.Unsigned {
				bad(i, InvFlags, "copy signedness flag %v != destination column metadata %v", op.unsigned(), dst.Unsigned)
			}
		case planClear, planAdd, planSub, planNeg:
			if op.unsigned() {
				bad(i, InvFlags, "non-copy op carries the unsigned-copy flag")
			}
		}
		if op.kind == planCopy && op.dst == op.a {
			bad(i, InvAliasing, "copy destination aliases its source")
		}
	}
	return out
}

// full is at with a fast op's width filled in from its instruction's
// destination column, clamped as the lowering clamps an escape's.
func (plan *ExecPlan) full(p *Program, i int) escOp {
	op := plan.at(i)
	if plan.ops[i].dst&opEsc == 0 {
		op.width = uint8(min(p.Cols[p.Instrs[i].Dst].Width, 64))
	}
	return op
}

// xop is one op of the independently re-derived lowering the
// correspondence audit compares the plan against.
type xop struct {
	kind  planKind
	dst   int32
	a, b  int32
	width uint8
	dsts  []copyDst
}

// expectedOp re-derives the op the documented lowering produces from one
// instruction of p, in columns: a multi-destination copy carries its
// destination list.
func expectedOp(p *Program, ins *Instr) xop {
	w := ins.Width
	if w > 64 {
		w = 64
	}
	x := xop{dst: int32(ins.Dst), a: int32(ins.A), b: int32(ins.B), width: uint8(w)}
	switch ins.Op {
	case OpClear:
		x.kind = planClear
	case OpAdd:
		x.kind = planAdd
	case OpSub:
		x.kind = planSub
	case OpNeg:
		x.kind = planNeg
	case OpCopy:
		if len(ins.Dsts) > 0 {
			x.kind = planCopyMulti
			x.dsts = append(x.dsts, copyDst{int32(ins.Dst), p.Cols[ins.Dst].Unsigned})
			for _, d := range ins.Dsts {
				x.dsts = append(x.dsts, copyDst{int32(d), p.Cols[d].Unsigned})
			}
			break
		}
		x.kind = planCopy
	}
	return x
}

// auditCorrespondence proves the plan's op stream is exactly the
// expected lowering of p: every field the machine dispatches on must
// match (kinds, widths, destination lists — InvCorrespondence — and
// operand slots, which must be the slot-table images of the program's
// columns — InvSlots). A flipped opcode, a perturbed slot index, or a
// corrupted side table all surface here with the offending op index.
func (plan *ExecPlan) auditCorrespondence(p *Program) []Violation {
	var out []Violation
	bad := func(op int, inv, format string, args ...any) {
		out = append(out, Violation{Op: op, Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
	slot := func(c int32) int32 { return plan.slot[c] }
	for i := range plan.ops {
		op, x := plan.full(p, i), expectedOp(p, &p.Instrs[i])
		if op.kind != x.kind {
			bad(i, InvCorrespondence, "op kind %d, program instruction lowers to %d", op.kind, x.kind)
			continue
		}
		if op.width != x.width {
			bad(i, InvCorrespondence, "op width %d, program width %d", op.width, x.width)
		}
		switch op.kind {
		case planClear, planCopy, planNeg:
			if op.dst != slot(x.dst) {
				bad(i, InvSlots, "destination slot %d, program destination column %d is in slot %d", op.dst, x.dst, slot(x.dst))
			}
			if op.kind != planClear && op.a != slot(x.a) {
				bad(i, InvSlots, "operand A slot %d, program operand column %d is in slot %d", op.a, x.a, slot(x.a))
			}
		case planAdd, planSub:
			if op.dst != slot(x.dst) || op.a != slot(x.a) || op.b != slot(x.b) {
				bad(i, InvSlots, "slots (dst %d, a %d, b %d), program columns (dst %d, a %d, b %d) are in (%d, %d, %d)",
					op.dst, op.a, op.b, x.dst, x.a, x.b, slot(x.dst), slot(x.a), slot(x.b))
			}
		case planCopyMulti:
			if op.a != slot(x.a) {
				bad(i, InvSlots, "operand A slot %d, program operand column %d is in slot %d", op.a, x.a, slot(x.a))
			}
			dsts := plan.multi[op.ext]
			if len(dsts) != len(x.dsts) {
				bad(i, InvCorrespondence, "%d multi-copy destinations, program has %d", len(dsts), len(x.dsts))
				continue
			}
			for k, d := range dsts {
				if d.unsigned != x.dsts[k].unsigned {
					bad(i, InvCorrespondence, "multi-copy destination %d signedness %v, program column %d has %v",
						k, d.unsigned, x.dsts[k].col, x.dsts[k].unsigned)
				}
				if d.col != slot(x.dsts[k].col) {
					bad(i, InvSlots, "multi-copy destination %d in slot %d, program column %d is in slot %d",
						k, d.col, x.dsts[k].col, slot(x.dsts[k].col))
				}
			}
		}
	}
	return out
}

// auditSlots proves, from the liveness re-derived from p, that the slot
// table stores the program: every column whose value must survive in its
// own storage — a non-temp column, which the caller loads or reads
// around the run, or a temp live at entry — owns its slot outright, and
// no op writes a slot while another column that lives there is still to
// be read (a non-temp column always is). With the correspondence audit's
// proof that each op names its columns' slots, every read then finds the
// value the program put in its column.
func (plan *ExecPlan) auditSlots(p *Program, lv auditLiveness) []Violation {
	var out []Violation
	bad := func(op int, format string, args ...any) {
		out = append(out, Violation{Op: op, Invariant: InvSlots, Detail: fmt.Sprintf(format, args...)})
	}
	private := func(c int) bool { return !p.Cols[c].Temp || lv.entry[c] >= 0 }
	holder := make([]int, plan.slots) // the column whose value a slot holds
	for s := range holder {
		holder[s] = -1
	}
	for c := range p.Cols {
		if !private(c) {
			continue
		}
		if h := holder[plan.slot[c]]; h >= 0 {
			bad(-1, "columns %d and %d both own slot %d", h, c, plan.slot[c])
		}
		holder[plan.slot[c]] = c
	}
	for c := range p.Cols {
		if h := holder[plan.slot[c]]; !private(c) && h >= 0 {
			bad(-1, "temp column %d shares slot %d, which column %d owns", c, plan.slot[c], h)
		}
	}
	var buf []int
	for i := range p.Instrs {
		cols, reads := auditOperands(&p.Instrs[i], buf)
		for _, c := range cols[reads:] {
			s := plan.slot[c]
			if h := holder[s]; h >= 0 && h != c && (!p.Cols[h].Temp || lv.lastRead[h] >= i) {
				bad(i, "writes column %d into slot %d while column %d, still to be read, lives there", c, s, h)
			}
			holder[s] = c
		}
		buf = cols
	}
	return out
}

// --- independent interval analysis -----------------------------------
//
// The helpers below re-derive, from column widths alone, the exact
// facts the wrap-elision and lane-width proofs need. They intentionally do not call
// formatRange/fitsFormat/addSat: the audit must not inherit a bug from
// the analysis it checks.

// auditSatBound mirrors the saturation band of the compile-time
// analysis: endpoints beyond it are "unknown", and saturated arithmetic
// below it can never overflow int64.
const auditSatBound = int64(1) << 61

func auditSatAdd(a, b int64) int64 {
	switch s := a + b; {
	case s > auditSatBound:
		return auditSatBound
	case s < -auditSatBound:
		return -auditSatBound
	default:
		return s
	}
}

// auditBand is the value interval a w-bit stored column can hold. From
// 63 bits up the engine never wraps, so the column holds anything the
// analysis can represent (including negatives in nominally unsigned
// columns).
func auditBand(w int, unsigned bool) (int64, int64) {
	if w >= 63 {
		return -auditSatBound, auditSatBound
	}
	if unsigned {
		hi := int64(1)<<uint(w) - 1
		if hi > auditSatBound {
			hi = auditSatBound
		}
		return 0, hi
	}
	half := int64(1) << uint(w-1)
	return -half, half - 1
}

// auditNoWrap reports whether [l, h] provably survives a w-bit wrap of
// the given signedness unchanged. Saturated endpoints prove nothing.
func auditNoWrap(l, h int64, w int, unsigned bool) bool {
	if w >= 63 {
		return true
	}
	if l <= -auditSatBound || h >= auditSatBound {
		return false
	}
	bl, bh := auditBand(w, unsigned)
	return l >= bl && h <= bh
}

// auditLaneHolds reports whether every value in [l, h] fits one lane of
// the machine's packed layout: a lane below 64 bits stores v + 2^(lane-2)
// under a spare top bit, so it holds v ∈ [-2^(lane-2), 2^(lane-2) − 1]; a
// 64-bit lane is a whole two's-complement word.
func auditLaneHolds(lane uint8, l, h int64) bool {
	if lane == 64 {
		return true
	}
	guard := int64(1) << (lane - 2)
	return -guard <= l && h <= guard-1
}

// auditRanges re-derives the value interval of every column under the
// machine's execution semantics and checks each claimed wrap elision,
// and the plan's lane width, against it. Entry state: loads wrap to each
// column's stored format and unwritten columns read zero, so every
// column starts inside its format band. A wide op keeps its exact result
// interval (that is what the machine computes); a truncating op
// collapses its destination to the stored format band, which soundly
// over-approximates any wrap. Every interval a column ever takes must
// fit a lane: the word arithmetic of the wide ops is only per-row
// arithmetic while no lane carries into its neighbour.
func (plan *ExecPlan) auditRanges(p *Program) []Violation {
	var out []Violation
	bad := func(op int, format string, args ...any) {
		out = append(out, Violation{Op: op, Invariant: InvMaskElision, Detail: fmt.Sprintf(format, args...)})
	}
	n := len(plan.cols)
	lo := make([]int64, n)
	hi := make([]int64, n)
	hold := func(op int, c int32, l, h int64) {
		lo[c], hi[c] = l, h
		if !auditLaneHolds(plan.lane, l, h) {
			out = append(out, Violation{Op: op, Invariant: InvLane,
				Detail: fmt.Sprintf("column %d holds [%d, %d], which does not fit a %d-bit lane under its guard bit", c, l, h, plan.lane)})
		}
	}
	for c, col := range plan.cols {
		l, h := auditBand(col.Width, col.Unsigned)
		hold(-1, int32(c), l, h)
	}
	for i := range p.Instrs {
		ins, op := &p.Instrs[i], plan.at(i)
		wide := op.wide()
		w := min(ins.Width, 64)
		switch ins.Op {
		case OpClear:
			hold(i, int32(ins.Dst), 0, 0)
		case OpCopy:
			for _, d := range append([]int{ins.Dst}, ins.Dsts...) {
				l, h, unsigned := lo[ins.A], hi[ins.A], p.Cols[d].Unsigned
				switch {
				case wide:
					if !auditNoWrap(l, h, w, unsigned) {
						bad(i, "mask-free copy of [%d, %d] into %d-bit column %d is not provably wrap-free", l, h, w, d)
					}
				case auditNoWrap(l, h, w, unsigned):
					// The truncating copy is provably the identity here, so
					// the destination keeps the exact source interval — the
					// fact later elision proofs may rest on.
				default:
					l, h = auditBand(w, unsigned)
				}
				hold(i, int32(d), l, h)
			}
		case OpAdd, OpSub, OpNeg:
			var l, h int64
			switch ins.Op {
			case OpAdd:
				l, h = auditSatAdd(lo[ins.B], lo[ins.A]), auditSatAdd(hi[ins.B], hi[ins.A])
			case OpSub:
				l, h = auditSatAdd(lo[ins.B], -hi[ins.A]), auditSatAdd(hi[ins.B], -lo[ins.A])
			default:
				l, h = -hi[ins.A], -lo[ins.A]
			}
			if wide {
				if !auditNoWrap(l, h, w, false) {
					bad(i, "mask-free arithmetic result [%d, %d] in a %d-bit column is not provably wrap-free", l, h, w)
				}
			} else {
				l, h = auditBand(w, false)
			}
			hold(i, int32(ins.Dst), l, h)
		}
	}
	return out
}

// auditZeroSet requires the slot of every column the program reads
// before any op writes it — exactly the storage Machine.Reset must clear
// on arena reuse — in the plan's reset set. A superset is sound (clearing
// more than necessary wastes a little work); a missing slot leaks stale
// values from the previous shape.
func (plan *ExecPlan) auditZeroSet(p *Program, lv auditLiveness) []Violation {
	var out []Violation
	zeroed := make(map[int32]bool, len(plan.zero))
	for _, z := range plan.zero {
		zeroed[z] = true
	}
	for c, i := range lv.entry {
		if i >= 0 && !zeroed[plan.slot[c]] {
			out = append(out, Violation{Op: i, Invariant: InvZeroSet,
				Detail: fmt.Sprintf("column %d is read before any write but its slot %d is missing from the reset set", c, plan.slot[c])})
		}
	}
	return out
}

// AuditParts proves, in one pass over p, that p cut into a head — the
// instructions before starts[0] — and fragments [starts[i], starts[i+1])
// runs as parts: the head followed by any run of fragments computes
// exactly those fragments' partial sums in the accumulators accs. Every
// view ExecPlan.Part builds of p's plan then holds under the whole plan's
// lanes and wrap-free flags, and needs no audit of its own. bound[c] is
// the fragment whose input column c is, or -1: an engine loads a part's
// inputs by fragment. It requires:
//
//   - the boundaries lie in the program in order, and the head is one
//     clear of every accumulator;
//   - no fragment reads a column another fragment writes, before or
//     after, or an input bound to another fragment, accumulators apart;
//   - accumulators are written only by the head's clears and by in-place
//     acc = acc ± x of a non-accumulator x, and read only there;
//   - by the audit's own intervals, no accumulate can wrap (a sum of
//     wrapped parts is not the wrapped sum), and every accumulated
//     operand's interval contains 0, so each partial sum's interval lies
//     inside the whole sum's.
func AuditParts(p *Program, starts, accs, bound []int) []Violation {
	var out []Violation
	bad := func(op int, format string, args ...any) {
		out = append(out, Violation{Op: op, Invariant: InvParts, Detail: fmt.Sprintf(format, args...)})
	}
	if len(bound) != len(p.Cols) {
		bad(-1, "%d bound columns for a program of %d", len(bound), len(p.Cols))
		return out
	}
	for i, s := range starts {
		if s < 0 || s > len(p.Instrs) || i > 0 && s < starts[i-1] {
			bad(-1, "fragment %d starts at instruction %d, out of order in %d instructions", i, s, len(p.Instrs))
			return out
		}
	}
	isAcc, cleared := make([]bool, len(p.Cols)), make([]bool, len(p.Cols))
	for _, c := range accs {
		isAcc[c] = true
	}
	// The fragment that wrote each non-accumulator column, and the first
	// that read it before any write; -1 none.
	writer, reader := make([]int32, len(p.Cols)), make([]int32, len(p.Cols))
	lo, hi := make([]int64, len(p.Cols)), make([]int64, len(p.Cols))
	for c, col := range p.Cols {
		writer[c], reader[c] = -1, -1
		lo[c], hi[c] = auditBand(col.Width, col.Unsigned)
	}
	f := int32(-1) // the fragment instruction i is in; -1 the head
	read := func(i, c int) {
		switch {
		case isAcc[c]:
			bad(i, "fragment %d reads accumulator %d, whose value is a partial sum in a part", f, c)
		case bound[c] >= 0 && bound[c] != int(f):
			bad(i, "fragment %d reads column %d, an input of fragment %d", f, c, bound[c])
		case writer[c] >= 0 && writer[c] != f:
			bad(i, "fragment %d reads column %d, which fragment %d writes", f, c, writer[c])
		case writer[c] < 0 && reader[c] < 0:
			reader[c] = f
		}
	}
	var buf []int
	for i := range p.Instrs {
		for int(f)+1 < len(starts) && starts[f+1] <= i {
			f++
		}
		ins := &p.Instrs[i]
		if f < 0 {
			if ins.Op != OpClear || !isAcc[ins.Dst] || cleared[ins.Dst] {
				bad(i, "head instruction %v of column %d is not the one clear of an accumulator", ins.Op, ins.Dst)
			}
			cleared[ins.Dst] = true
			lo[ins.Dst], hi[ins.Dst] = 0, 0
			continue
		}
		if (ins.Op == OpAdd || ins.Op == OpSub) && isAcc[ins.Dst] {
			if !ins.InPlace || ins.B != ins.Dst || isAcc[ins.A] {
				bad(i, "accumulate into column %d is not an in-place %d ± x of a non-accumulator x", ins.Dst, ins.Dst)
				continue
			}
			a, d := ins.A, ins.Dst
			if lo[a] > 0 || hi[a] < 0 {
				bad(i, "accumulated column %d holds [%d, %d], without 0: a partial sum may leave the whole sum's interval", a, lo[a], hi[a])
			}
			l, h := auditSatAdd(lo[d], lo[a]), auditSatAdd(hi[d], hi[a])
			if ins.Op == OpSub {
				l, h = auditSatAdd(lo[d], -hi[a]), auditSatAdd(hi[d], -lo[a])
			}
			if !auditNoWrap(l, h, min(ins.Width, 64), false) {
				bad(i, "accumulate into column %d may wrap at [%d, %d], and a sum of wrapped parts is not the wrapped sum", d, l, h)
			}
			lo[d], hi[d] = l, h
			read(i, a)
			continue
		}
		cols, reads := auditOperands(ins, buf)
		buf = cols
		for _, c := range cols[:reads] {
			read(i, c)
		}
		for _, c := range cols[reads:] {
			if isAcc[c] {
				bad(i, "fragment %d writes accumulator %d other than by accumulating into it", f, c)
				continue
			}
			if reader[c] >= 0 && reader[c] != f {
				bad(i, "fragment %d writes column %d, which fragment %d reads", f, c, reader[c])
			}
			writer[c] = f
		}
		// The machine's intervals: exact where the result provably fits
		// its column, the column's band where it may wrap.
		w := min(ins.Width, 64)
		switch ins.Op {
		case OpClear:
			lo[ins.Dst], hi[ins.Dst] = 0, 0
		case OpCopy:
			for _, d := range cols[reads:] {
				lo[d], hi[d] = lo[ins.A], hi[ins.A]
				if !auditNoWrap(lo[d], hi[d], w, p.Cols[d].Unsigned) {
					lo[d], hi[d] = auditBand(w, p.Cols[d].Unsigned)
				}
			}
		case OpAdd, OpSub, OpNeg:
			var l, h int64
			switch ins.Op {
			case OpAdd:
				l, h = auditSatAdd(lo[ins.B], lo[ins.A]), auditSatAdd(hi[ins.B], hi[ins.A])
			case OpSub:
				l, h = auditSatAdd(lo[ins.B], -hi[ins.A]), auditSatAdd(hi[ins.B], -lo[ins.A])
			default:
				l, h = -hi[ins.A], -lo[ins.A]
			}
			if !auditNoWrap(l, h, w, false) {
				l, h = auditBand(w, false)
			}
			lo[ins.Dst], hi[ins.Dst] = l, h
		}
	}
	for _, c := range accs {
		if !cleared[c] {
			bad(-1, "accumulator %d is not cleared in the head", c)
		}
	}
	return out
}
