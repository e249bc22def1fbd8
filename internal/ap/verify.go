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
// shares no code with the lowering's range analysis or findZeroCols beyond
// the plan layout itself: the op encoding, which auditStructure checks
// raw, and at, its decoder — so the audit reads the array Run executes.

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
	// InvMaskElision: an op claims wrapping is the identity but the
	// re-derived value intervals cannot prove it.
	InvMaskElision = "mask-elision"
	// InvZeroSet: a column is read before any op writes it but is
	// missing from the reset set, so arena reuse leaks stale rows.
	InvZeroSet = "zero-set"
	// InvLane: the plan's lane width is not one the machine packs, or
	// some column's entry band or some op's result does not fit a lane
	// minus its guard bit — a carry would cross into the neighbouring
	// row.
	InvLane = "lane"
	// InvFormat: a column's load format disagrees with its metadata.
	InvFormat = "format"
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
//     (InvCorrespondence);
//   - mask elision: every op flagged wide provably never wraps, by a
//     re-derived interval analysis over the machine's semantics
//     (InvMaskElision);
//   - lane width: by the same re-derived intervals, every value a column
//     can hold — at entry and after every op — fits the plan's lane with
//     its guard bit to spare (InvLane);
//   - zero-set soundness: every column read before it is written is in
//     the plan's reset set (InvZeroSet).
//
// A nil return means the plan is proved consistent with p under all five
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
	var out []Violation
	out = append(out, plan.auditCorrespondence(p)...)
	out = append(out, plan.auditRanges()...)
	out = append(out, plan.auditZeroSet()...)
	return out
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
	ncols := int32(len(plan.cols))
	colOK := func(c int32) bool { return c >= 0 && c < ncols }
	for _, z := range plan.zero {
		if !colOK(z) {
			bad(-1, InvBounds, "zero-set column %d outside 0..%d", z, ncols-1)
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
			if !colOK(int32(raw.dst)) || !colOK(int32(raw.a&^opSub)) || !colOK(int32(raw.b)) {
				bad(i, InvBounds, "fast op %v names a column outside 0..%d", raw, ncols-1)
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
	if len(out) > 0 {
		return out
	}

	for i := range plan.ops {
		op := plan.at(i)
		if !colOK(op.dst) {
			bad(i, InvBounds, "destination column %d outside 0..%d", op.dst, ncols-1)
			continue
		}
		// The destination's declared width, clamped the way the
		// lowering clamps it into the op encoding.
		wantW := plan.cols[op.dst].Width
		if wantW > 64 {
			wantW = 64
		}
		if int(op.width) != wantW {
			bad(i, InvWidth, "op width %d != destination column width %d", op.width, wantW)
		}
		// A ≥63-bit op must be wide: wrap() is the identity there, but
		// the mask/sign constants of the truncating path are only
		// meaningful below 63 bits.
		if plan.cols[op.dst].Width >= 63 && !op.wide() {
			bad(i, InvFlags, "%d-bit op is not flagged wide; its wrap constants corrupt the top bits", plan.cols[op.dst].Width)
		}

		readsA := true
		switch op.kind {
		case planClear:
			readsA = false
		case planCopy, planNeg:
		case planAdd, planSub:
			if !colOK(op.b) {
				bad(i, InvBounds, "operand B column %d outside 0..%d", op.b, ncols-1)
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
				if !colOK(cd.col) {
					bad(i, InvBounds, "multi-copy destination %d outside 0..%d", cd.col, ncols-1)
					continue
				}
				w := plan.cols[cd.col].Width
				if w > 64 {
					w = 64
				}
				if w != int(op.width) {
					bad(i, InvWidth, "multi-copy destination %d has width %d, op width %d", cd.col, w, op.width)
				}
				if cd.unsigned != plan.cols[cd.col].Unsigned {
					bad(i, InvFlags, "multi-copy destination %d signedness %v != column metadata %v", cd.col, cd.unsigned, plan.cols[cd.col].Unsigned)
				}
				if colOK(op.a) && cd.col == op.a {
					bad(i, InvAliasing, "multi-copy destination %d aliases the source", cd.col)
				}
			}
		default:
			// Exhaustive opcode coverage: a kind the interpreter's
			// dispatch switch does not know silently executes as a no-op.
			bad(i, InvCoverage, "op kind %d outside the interpreter's dispatch set", op.kind)
			continue
		}

		if readsA && !colOK(op.a) {
			bad(i, InvBounds, "operand A column %d outside 0..%d", op.a, ncols-1)
			continue
		}
		// Signedness flag: copies wrap with the destination's declared
		// signedness; everything else wraps signed and must not carry
		// the flag.
		switch op.kind {
		case planCopy, planCopyMulti:
			if op.unsigned() != plan.cols[op.dst].Unsigned {
				bad(i, InvFlags, "copy signedness flag %v != destination column metadata %v", op.unsigned(), plan.cols[op.dst].Unsigned)
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

// xop is one op of the independently re-derived lowering the
// correspondence audit compares the plan against.
type xop struct {
	kind  planKind
	dst   int32
	a, b  int32
	width uint8
	dsts  []copyDst
}

// expectedLowering re-derives the op stream the documented lowering
// produces from p: one op per instruction, multi-destination copies
// carrying their destination list.
func expectedLowering(p *Program) []xop {
	var out []xop
	for _, ins := range p.Instrs {
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
		out = append(out, x)
	}
	return out
}

// auditCorrespondence proves the plan's op stream is exactly the
// expected lowering of p: every field the machine dispatches on must
// match (operand columns, widths, kinds, destination lists). A
// flipped opcode, a perturbed column index, or a corrupted
// side table all surface here with the offending op index.
func (plan *ExecPlan) auditCorrespondence(p *Program) []Violation {
	var out []Violation
	bad := func(op int, format string, args ...any) {
		out = append(out, Violation{Op: op, Invariant: InvCorrespondence, Detail: fmt.Sprintf(format, args...)})
	}
	want := expectedLowering(p)
	if len(want) != len(plan.ops) {
		bad(-1, "plan has %d ops, lowering of the program produces %d", len(plan.ops), len(want))
		return out
	}
	for i := range plan.ops {
		op, x := plan.at(i), &want[i]
		if op.kind != x.kind {
			bad(i, "op kind %d, program instruction lowers to %d", op.kind, x.kind)
			continue
		}
		if op.width != x.width {
			bad(i, "op width %d, program width %d", op.width, x.width)
		}
		switch op.kind {
		case planClear, planCopy, planNeg:
			if op.dst != x.dst {
				bad(i, "destination %d, program destination %d", op.dst, x.dst)
			}
			if op.kind != planClear && op.a != x.a {
				bad(i, "operand A %d, program operand %d", op.a, x.a)
			}
		case planAdd, planSub:
			if op.dst != x.dst || op.a != x.a || op.b != x.b {
				bad(i, "operands (dst %d, a %d, b %d), program (dst %d, a %d, b %d)",
					op.dst, op.a, op.b, x.dst, x.a, x.b)
			}
		case planCopyMulti:
			if op.a != x.a {
				bad(i, "operand A %d, program operand %d", op.a, x.a)
			}
			dsts := plan.multi[op.ext]
			if len(dsts) != len(x.dsts) {
				bad(i, "%d multi-copy destinations, program has %d", len(dsts), len(x.dsts))
				continue
			}
			for k := range dsts {
				if dsts[k] != x.dsts[k] {
					bad(i, "multi-copy destination %d is %+v, program has %+v", k, dsts[k], x.dsts[k])
				}
			}
		}
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
// 63 bits up wrap() is the identity, so the column holds anything the
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
func (plan *ExecPlan) auditRanges() []Violation {
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
	for i := range plan.ops {
		op := plan.at(i)
		w := int(op.width)
		switch op.kind {
		case planClear:
			hold(i, op.dst, 0, 0)
		case planCopy:
			l, h := lo[op.a], hi[op.a]
			if op.wide() {
				if !auditNoWrap(l, h, w, op.unsigned()) {
					bad(i, "mask-free copy of [%d, %d] into a %d-bit column is not provably wrap-free", l, h, w)
				}
			} else {
				l, h = auditBand(w, op.unsigned())
			}
			hold(i, op.dst, l, h)
		case planCopyMulti:
			for _, cd := range plan.multi[op.ext] {
				l, h := lo[op.a], hi[op.a]
				switch {
				case op.wide():
					if !auditNoWrap(l, h, w, cd.unsigned) {
						bad(i, "mask-free multi-copy of [%d, %d] into %d-bit column %d is not provably wrap-free", l, h, w, cd.col)
					}
				case auditNoWrap(l, h, w, cd.unsigned):
					// The truncating copy is provably the identity here, so
					// the destination keeps the exact source interval — the
					// fact later elision proofs may rest on.
				default:
					l, h = auditBand(w, cd.unsigned)
				}
				hold(i, cd.col, l, h)
			}
		case planAdd, planSub, planNeg:
			var l, h int64
			switch op.kind {
			case planAdd:
				l, h = auditSatAdd(lo[op.b], lo[op.a]), auditSatAdd(hi[op.b], hi[op.a])
			case planSub:
				l, h = auditSatAdd(lo[op.b], -hi[op.a]), auditSatAdd(hi[op.b], -lo[op.a])
			default:
				l, h = -hi[op.a], -lo[op.a]
			}
			if op.wide() {
				if !auditNoWrap(l, h, w, false) {
					bad(i, "mask-free arithmetic result [%d, %d] in a %d-bit column is not provably wrap-free", l, h, w)
				}
			} else {
				l, h = auditBand(w, false)
			}
			hold(i, op.dst, l, h)
		}
	}
	return out
}

// auditZeroSet re-derives the columns the machine reads before any op
// writes them — exactly the rows Machine.Reset must clear on arena
// reuse — and requires every one of them in the plan's reset set. A
// superset is sound (clearing more than necessary wastes a little
// work); a missing column leaks stale values from the previous shape.
func (plan *ExecPlan) auditZeroSet() []Violation {
	var out []Violation
	zeroed := make(map[int32]bool, len(plan.zero))
	for _, z := range plan.zero {
		zeroed[z] = true
	}
	written := make([]bool, len(plan.cols))
	read := func(op int, c int32) {
		if !written[c] && !zeroed[c] {
			out = append(out, Violation{Op: op, Invariant: InvZeroSet,
				Detail: fmt.Sprintf("column %d is read before any write but missing from the reset set", c)})
			zeroed[c] = true // report each leaked column once
		}
	}
	for i := range plan.ops {
		op := plan.at(i)
		switch op.kind {
		case planClear:
			written[op.dst] = true
		case planCopy, planNeg:
			read(i, op.a)
			written[op.dst] = true
		case planCopyMulti:
			read(i, op.a)
			for _, cd := range plan.multi[op.ext] {
				written[cd.col] = true
			}
		case planAdd, planSub:
			read(i, op.a)
			read(i, op.b)
			written[op.dst] = true
		}
	}
	return out
}
