package ap

import (
	"fmt"
	"math/bits"
)

// ExecPlan is a Program lowered for repeated execution. Interpreting the
// instruction list directly would re-validate it on every run and
// re-derive each destination's wrap parameters per row; an ExecPlan does
// all of that exactly once, at build time:
//
//   - the program is validated once, so execution has no error paths;
//   - a static value-range analysis finds every op whose result provably
//     fits its destination format — including all of a sound compiler
//     emission — so it runs as plain word arithmetic over packed lanes
//     with no per-row wrap (the width ≥ 63 case falls out of the same
//     flag);
//   - every instruction becomes one 12-byte planOp, in program order
//     (large networks stream millions of ops per inference, so op size IS
//     interpreter memory traffic): a wrap-free Add or Sub — all but the
//     leading Clears of a compiled program — is three column indices and
//     a sign bit that Run executes undecoded, anything else an escape;
//   - the same analysis picks the lane width: the narrowest of 16, 32 or
//     64 bits whose guarded range holds every value a column can carry,
//     so one 64-bit word op advances 4, 2 or 1 CAM rows;
//   - the columns that must read as zero at entry (read before written)
//     are recorded, so machine reuse clears only those instead of the
//     whole arena;
//   - every column gets an arena slot, and the ops name slots, not
//     columns: a Temp column shares its slot with temporaries whose lives
//     do not overlap its own, so the arena is as wide as the most values
//     the program holds at once, not as the columns it names.
//
// An ExecPlan is immutable and safe to share: the functional simulator
// builds one per TileProgram (memoized, and shared further through the
// compiled-artifact cache) and replays it from many goroutines at once
// through per-worker Machines. Machine execution is bit-identical to the
// bit-serial LUT replay, Exec — TestMachineMatchesExecRandomPrograms
// proves it over randomized programs at every lane width.
type ExecPlan struct {
	cols []Col
	// fmts is each column's format in a byte, all a load or row copy reads
	// of it: its width, clamped to 64, or'd with fmtUnsigned.
	fmts []uint8
	// slot is each column's arena slot, and slots their count: how many
	// columns' words a Machine's arena holds.
	slot  []int32
	slots int
	// ops is the program, one op per instruction, over slots: what Run
	// executes and AuditPlan audits.
	ops []planOp
	// esc holds the full form of every op that is not a fast op, in
	// program order, indexed by the escape's planOp.dst.
	esc []escOp
	// multi is the side table of multi-destination copies, indexed by
	// escOp.ext.
	multi [][]copyDst
	// zero lists the slots that must read as zero at entry: those of the
	// columns some op reads before any op writes them. On arena reuse each
	// is either cleared by Reset or, for a column its caller names as
	// loaded, written on every active row by the caller's loads — programs
	// fully write everything else before looking at it, so stale rows from
	// a previous plan are unobservable.
	zero []int32
	// lane is the lane width in bits (16, 32 or 64) the Machine packs
	// this plan's rows at.
	lane uint8
}

// planOp is one op of the stream. A fast op — an Add or Sub proved
// wrap-free — is dst = b ± a over whole slots: three slot indices,
// opSub in a's spare top bit. Anything else is an escape: dst is opEsc
// plus the op's index in ExecPlan.esc, a and b are zero.
type planOp struct{ dst, a, b uint32 }

const (
	opEsc       = 1 << 31 // planOp.dst: escape to the side table
	opSub       = 1 << 31 // planOp.a: subtract
	fmtUnsigned = 1 << 7  // ExecPlan.fmts: the column is unsigned
)

// planKind discriminates the resolved operation variants of an escOp.
type planKind uint8

const (
	planClear     planKind = iota
	planCopy               // single-destination copy
	planCopyMulti          // multi-destination copy (per-destination wrap)
	planAdd
	planSub
	planNeg
)

// copyDst is one destination of a multi-destination copy with its own
// signedness: the hardware writes the same Width bits into every
// destination column, and each column's metadata decides how those bits
// read back as an integer. col is the destination's slot once the plan
// is built.
type copyDst struct {
	col      int32
	unsigned bool
}

// escOp flags.
const (
	flagWide     = 1 << iota // wrapping is provably the identity
	flagUnsigned             // destination signedness (copy wrap only)
)

// escOp is the full form of one op: what an escape points at, and what
// at decodes any op into. dst, a and b are slots once the plan is built
// (columns while NewExecPlan lowers). Wrap masks derive from width with
// two shifts at dispatch; a multi-destination copy's list is
// plan.multi[ext].
type escOp struct {
	kind  planKind
	flags uint8
	width uint8
	dst   int32
	a     int32
	b     int32
	ext   int32 // side-table index (planCopyMulti)
}

func (op *escOp) wide() bool     { return op.flags&flagWide != 0 }
func (op *escOp) unsigned() bool { return op.flags&flagUnsigned != 0 }

// emit appends op to the stream in its one encoding: a wide Add or Sub
// as a fast op, anything else as an escape.
func (plan *ExecPlan) emit(op escOp) {
	if op.wide() && (op.kind == planAdd || op.kind == planSub) {
		plan.ops = append(plan.ops, planOp{uint32(op.dst), uint32(op.a) | uint32(op.kind-planAdd)<<31, uint32(op.b)})
		return
	}
	plan.ops = append(plan.ops, planOp{dst: opEsc | uint32(len(plan.esc))})
	plan.esc = append(plan.esc, op)
}

// at decodes op i into its full form — the one reader of the encoding
// besides Run, used by the auditor. A fast op stores no width (it never
// wraps): its width is its destination column's, which a slot does not
// determine, so at reports 0 and the auditor takes it from the program.
func (plan *ExecPlan) at(i int) escOp {
	op := plan.ops[i]
	if op.dst&opEsc != 0 {
		return plan.esc[op.dst&^opEsc]
	}
	return escOp{kind: planAdd + planKind(op.a>>31), flags: flagWide,
		dst: int32(op.dst), a: int32(op.a &^ opSub), b: int32(op.b)}
}

// operands puts the columns ins, an instruction of p, reads, then those
// it writes, in buf — the order of one op, which reads all its operands
// first — and returns them with the count of reads.
func (p *Program) operands(ins *Instr, buf []int) ([]int, int) {
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
		buf = append(buf, p.ExtraDsts(ins)...)
	}
	return buf, reads
}

// NewExecPlan validates p and lowers it one instruction to one op, in one
// pass: the range analysis (wrap elision and lane width, see ranges)
// judges each op as it is resolved, because its verdict picks the op's
// encoding, and each column's last reference is noted. One more walk
// finds the zero set and gives every column its slot (assignSlots). The
// returned plan references p's column table but never mutates it.
func NewExecPlan(p *Program) (*ExecPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Cols) > 1<<31-1 {
		return nil, fmt.Errorf("ap: exec plan: %d columns overflow the op encoding", len(p.Cols))
	}
	plan := &ExecPlan{cols: p.Cols, fmts: make([]uint8, len(p.Cols)), ops: make([]planOp, 0, len(p.Instrs))}
	for c, col := range p.Cols {
		plan.fmts[c] = uint8(min(col.Width, 64))
		if col.Unsigned {
			plan.fmts[c] |= fmtUnsigned
		}
	}
	ra := newRanges(p.Cols)
	last := make([]int32, len(p.Cols)) // each column's last referencing op
	var cols []int
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		cols, _ = p.operands(ins, cols)
		for _, c := range cols {
			last[c] = int32(i)
		}
		// wrap is the identity from 63 bits up; clamp into uint8 range
		op := escOp{dst: int32(ins.Dst), a: int32(ins.A), b: int32(ins.B), width: uint8(min(ins.Width, 64))}
		if ins.Width >= 63 {
			op.flags |= flagWide
		}
		switch ins.Op {
		case OpClear:
			op.kind = planClear
		case OpCopy:
			op.kind = planCopy
			if p.Cols[ins.Dst].Unsigned {
				op.flags |= flagUnsigned
			}
			if extra := p.ExtraDsts(ins); len(extra) > 0 {
				op.kind = planCopyMulti
				dsts := []copyDst{{int32(ins.Dst), p.Cols[ins.Dst].Unsigned}}
				for _, d := range extra {
					dsts = append(dsts, copyDst{int32(d), p.Cols[d].Unsigned})
				}
				op.ext = int32(len(plan.multi))
				plan.multi = append(plan.multi, dsts)
			}
		case OpAdd:
			op.kind = planAdd
		case OpSub:
			op.kind = planSub
		case OpNeg:
			op.kind = planNeg
		default:
			return nil, fmt.Errorf("ap: exec plan: %w", errUnknownOpcode(ins.Op))
		}
		ra.step(&op, plan.multi)
		plan.emit(op)
	}
	plan.lane = laneFor(ra.minV, ra.maxV)
	plan.assignSlots(p, last)
	return plan, nil
}

// Part returns a view of the plan that runs ops [0, head) and then ops
// [lo, hi): the lowering of the program made of those instructions, over
// the same column formats, slots, lanes and multi-copy table, built
// without lowering again. Its escapes are copied in its own program order, and
// its zero set is the plan's restricted to the slots its ops name, so a
// part resets only what it reads. The view is sound when the cut is:
// AuditParts proves that of a compiled tile program cut at its channel
// boundaries, and AuditPlan accepts each view against its own
// instructions.
func (p *ExecPlan) Part(head, lo, hi int) *ExecPlan {
	if head < 0 || head > lo || lo > hi || hi > len(p.ops) {
		panic(fmt.Sprintf("ap: part [0, %d) ++ [%d, %d) of a %d-op plan", head, lo, hi, len(p.ops)))
	}
	v := &ExecPlan{cols: p.cols, fmts: p.fmts, slot: p.slot, slots: p.slots, multi: p.multi, lane: p.lane,
		ops: make([]planOp, 0, head+hi-lo)}
	used := make([]bool, p.slots)
	for _, r := range [2][2]int{{0, head}, {lo, hi}} {
		for _, op := range p.ops[r[0]:r[1]] {
			if op.dst&opEsc == 0 {
				used[op.dst], used[op.a&^opSub], used[op.b] = true, true, true
				v.ops = append(v.ops, op)
				continue
			}
			e := p.esc[op.dst&^opEsc]
			used[e.dst] = true
			switch e.kind {
			case planAdd, planSub:
				used[e.a], used[e.b] = true, true
			case planCopy, planNeg:
				used[e.a] = true
			case planCopyMulti:
				used[e.a] = true
				for _, d := range p.multi[e.ext] {
					used[d.col] = true
				}
			case planClear:
			}
			v.ops = append(v.ops, planOp{dst: opEsc | uint32(len(v.esc))})
			v.esc = append(v.esc, e)
		}
	}
	for _, z := range p.zero {
		if used[z] {
			v.zero = append(v.zero, z)
		}
	}
	return v
}

// Slots returns how many slots — columns' worth of words — a Machine's
// arena holds for the plan.
func (p *ExecPlan) Slots() int { return p.slots }

// Slot is a column as a Machine's movers address it: its arena slot and
// stored format, resolved once (ExecPlan.Slot) so that a loader moving
// the same columns on every run looks neither up per call. A part view
// shares its plan's slots and formats.
type Slot struct {
	s   int32
	fmt uint8
}

// Slot resolves column col of the plan for the movers.
func (p *ExecPlan) Slot(col int) Slot { return Slot{p.slot[col], p.fmts[col]} }

// Ops returns the resolved operation count.
func (p *ExecPlan) Ops() int { return len(p.ops) }

// LaneBits returns the lane width the plan executes at: a Machine packs
// 64/LaneBits rows into every arena word.
func (p *ExecPlan) LaneBits() int { return int(p.lane) }

// rangeSat bounds the interval analysis so interval arithmetic can never
// overflow int64 (sums of two in-bound endpoints stay below 2^62).
const rangeSat = int64(1) << 61

func addSat(a, b int64) int64 {
	s := a + b
	if s > rangeSat {
		return rangeSat
	}
	if s < -rangeSat {
		return -rangeSat
	}
	return s
}

// formatRange is the value interval a column's stored format can hold.
// The engine never wraps a column of width ≥ 63 (nominally unsigned ones
// can therefore hold negative values), so their interval is the saturated "unknown" band; a 62-bit
// unsigned column's upper bound exceeds the saturation band and clamps
// to it, which fitsFormat treats as unprovable.
func formatRange(w int, unsigned bool) (int64, int64) {
	if w >= 63 {
		return -rangeSat, rangeSat
	}
	if unsigned {
		if hi := int64(1)<<uint(w) - 1; hi < rangeSat {
			return 0, hi
		}
		return 0, rangeSat
	}
	half := int64(1) << uint(w-1)
	return -half, half - 1
}

// fitsFormat reports whether the interval [l, h] provably stays inside a
// w-bit column of the given signedness without wrapping. Only widths
// ≥ 63, which the engine never wraps, are unconditionally safe.
// Saturated endpoints mean the true interval may extend beyond the
// analysis band, so they prove nothing.
func fitsFormat(l, h int64, w int, unsigned bool) bool {
	if w >= 63 {
		return true
	}
	if l <= -rangeSat || h >= rangeSat {
		return false
	}
	fl, fh := formatRange(w, unsigned)
	return l >= fl && h <= fh
}

// laneFor returns the narrowest lane whose guarded range holds every
// value in [l, h]. A lane of L < 64 bits stores v + 2^(L-2) and keeps its
// top bit spare, so it carries v ∈ [-2^(L-2), 2^(L-2)); the 64-bit lane
// is plain two's complement and carries anything.
func laneFor(l, h int64) uint8 {
	for _, lane := range [...]uint8{16, 32} {
		if g := int64(1) << (lane - 2); l >= -g && h < g {
			return lane
		}
	}
	return 64
}

// ranges propagates value intervals through a program as NewExecPlan
// lowers it: step marks every op whose result provably fits its
// destination format as wide (wrap is the identity there), and [minV,
// maxV] — the union of every interval a column can hold — sizes the
// plan's lanes. Soundness rests on the entry state: loads wrap to each
// column's format before Run, and unwritten columns are zero, so every
// column starts inside its format range. An op that may wrap resets its
// destination to the full format interval, exactly matching the
// truncating execution path.
type ranges struct {
	lo, hi     []int64
	minV, maxV int64
}

func newRanges(cols []Col) *ranges {
	ra := &ranges{lo: make([]int64, len(cols)), hi: make([]int64, len(cols))}
	for c, col := range cols {
		l, h := formatRange(col.Width, col.Unsigned)
		ra.set(int32(c), l, h)
	}
	return ra
}

func (ra *ranges) set(c int32, l, h int64) {
	ra.lo[c], ra.hi[c] = l, h
	ra.minV, ra.maxV = min(ra.minV, l), max(ra.maxV, h)
}

func (ra *ranges) step(op *escOp, multi [][]copyDst) {
	lo, hi, w := ra.lo, ra.hi, int(op.width)
	switch op.kind {
	case planClear:
		ra.set(op.dst, 0, 0)
	case planCopy:
		if op.wide() || fitsFormat(lo[op.a], hi[op.a], w, op.unsigned()) {
			op.flags |= flagWide
			ra.set(op.dst, lo[op.a], hi[op.a])
		} else {
			l, h := formatRange(w, op.unsigned())
			ra.set(op.dst, l, h)
		}
	case planCopyMulti:
		// Wide only when no destination wraps; a destination the copy
		// provably leaves intact keeps the source interval either way.
		l, h, all := lo[op.a], hi[op.a], true
		for _, cd := range multi[op.ext] {
			if op.wide() || fitsFormat(l, h, w, cd.unsigned) {
				ra.set(cd.col, l, h)
			} else {
				all = false
				fl, fh := formatRange(w, cd.unsigned)
				ra.set(cd.col, fl, fh)
			}
		}
		if all {
			op.flags |= flagWide
		}
	case planAdd, planSub, planNeg:
		var l, h int64
		switch op.kind {
		case planAdd:
			l, h = addSat(lo[op.b], lo[op.a]), addSat(hi[op.b], hi[op.a])
		case planSub:
			l, h = addSat(lo[op.b], -hi[op.a]), addSat(hi[op.b], -lo[op.a])
		default:
			l, h = -hi[op.a], -lo[op.a]
		}
		if op.wide() || fitsFormat(l, h, w, false) {
			op.flags |= flagWide
		} else {
			l, h = formatRange(w, false)
		}
		ra.set(op.dst, l, h)
	}
}

// assignSlots is the lowering's last walk. In program order it records
// the zero set — every column some op reads before any op writes it, which
// an unloaded input (a strip tail's unused plane, say, or a padding tap)
// must read as zero — and gives each column its arena slot, rewriting op
// i from columns to slots as it passes. Every non-temp column owns a slot,
// numbered in column order (so a program without temps keeps slot =
// column), and so does a temp in the zero set: it lives from entry. Any
// other temp takes a free slot, the most recently freed first, at its
// first write, and frees it after the op of its last reference, last[c];
// the op's destinations are placed first, so no op writes a slot it frees.
// A temp no op names takes any slot: it has no value to keep.
func (plan *ExecPlan) assignSlots(p *Program, last []int32) {
	slot := make([]int32, len(p.Cols))
	n := int32(0)
	next := func() int32 { n++; return n - 1 }
	for c, col := range p.Cols {
		slot[c] = -1
		if !col.Temp {
			slot[c] = next()
		}
	}
	// whether some op has written each column, and whether it is in the
	// zero set
	written, zeroed := make([]bool, len(p.Cols)), make([]bool, len(p.Cols))
	var free []int32 // slots no live temp holds, most recently freed last
	var cols []int
	reads := 0
	for i := range p.Instrs {
		cols, reads = p.operands(&p.Instrs[i], cols)
		for k, c := range cols {
			switch {
			case k >= reads:
				written[c] = true
				if slot[c] < 0 {
					if top := len(free) - 1; top >= 0 {
						slot[c], free = free[top], free[:top]
					} else {
						slot[c] = next()
					}
				}
			case !written[c] && !zeroed[c]:
				zeroed[c] = true
				if slot[c] < 0 {
					slot[c] = next()
				}
				plan.zero = append(plan.zero, slot[c])
			}
		}
		plan.rebind(i, slot)
		for _, c := range cols {
			if last[c] == int32(i) && p.Cols[c].Temp && !zeroed[c] {
				free = append(free, slot[c])
				last[c] = -1 // an op naming c twice frees it once
			}
		}
	}
	for c := range slot {
		if slot[c] < 0 {
			if len(free) == 0 {
				free = append(free, next())
			}
			slot[c] = free[0]
		}
	}
	plan.slot, plan.slots = slot, int(n)
}

// rebind rewrites op i's columns as their slots.
func (plan *ExecPlan) rebind(i int, slot []int32) {
	op := &plan.ops[i]
	if op.dst&opEsc == 0 {
		op.dst, op.a, op.b = uint32(slot[op.dst]), uint32(slot[op.a&^opSub])|op.a&opSub, uint32(slot[op.b])
		return
	}
	e := &plan.esc[op.dst&^opEsc]
	e.dst = slot[e.dst]
	switch e.kind {
	case planAdd, planSub:
		e.b = slot[e.b]
		fallthrough
	case planCopy, planNeg:
		e.a = slot[e.a]
	case planCopyMulti:
		e.a = slot[e.a]
		for j := range plan.multi[e.ext] {
			d := &plan.multi[e.ext][j]
			d.col = slot[d.col]
		}
	case planClear:
	}
}

// Machine executes an ExecPlan over reusable, lane-packed column
// storage: every slot is a run of 64-bit words holding 64/L rows each,
// L the plan's lane width, so one word op advances that many CAM rows at
// once — the software image of the AP applying one add/sub program to
// every row in parallel. The methods that name a column resolve its slot
// once per call.
//
// A lane of L < 64 bits stores its value offset by 2^(L-2) and keeps the
// top bit spare. Every stored lane is then below 2^(L-1), the sum of two
// lanes cannot carry into the next lane up, and word-wide b + a − bias
// is b + a in every lane — b + bias − a is b − a — with no masking at
// all. The 64-bit lane is the same loop with bias 0: plain
// two's-complement int64.
//
// It allocates nothing per execution: Reset rebinds
// the same flat arena to a (plan, rows) pair, growing the backing slice
// only when a larger shape arrives, so a worker that replays many
// programs reaches an allocation-free steady state. A Machine is not
// safe for concurrent use; share plans, not machines.
type Machine struct {
	plan  *ExecPlan
	rows  int
	words int    // words per column: ⌈rows·lane/64⌉
	lane  uint   // lane width in bits
	lg    uint   // log2(lane)
	mask  uint64 // low lane of a word
	rep   uint64 // bit 0 of every lane: x·rep copies a lane value x into all
	one   int64  // the offset of one lane (0 at 64 bits)
	bias  uint64 // one in every lane: the encoding of an all-zero word
	flat  []uint64
	// loaded marks the loaded columns of the last Reset: slot s is
	// loaded when loaded[s] == stamp, which every Reset advances.
	loaded []uint32
	stamp  uint32
}

// Reset binds m to plan with the given active row count: an arena of
// plan.Slots() slots. Of the zero set — the slots of columns the plan
// reads before writing — Reset clears every slot but those of the loaded
// columns, which the caller must write on every active row before Run
// (LoadRows and SetRow store zero where there is nothing to load); the
// rest are fully written before any op looks at them. So a reused machine
// behaves exactly like a freshly allocated one for every observable
// column; columns the plan neither writes nor zeroes are undefined, as is
// a Temp column after its last reference and every lane past the last
// active row.
func (m *Machine) Reset(plan *ExecPlan, rows int, loaded []Slot) {
	if rows <= 0 {
		panic(fmt.Sprintf("ap: machine reset with %d rows", rows))
	}
	lane := uint(plan.lane)
	m.plan, m.rows, m.lane = plan, rows, lane
	m.words = (rows*int(lane) + 63) >> 6
	m.lg = uint(bits.TrailingZeros(lane))
	m.mask = ^uint64(0) >> (64 - lane)
	m.one = 0
	if lane < 64 {
		m.one = 1 << (lane - 2)
	}
	m.rep = ^uint64(0) / m.mask
	m.bias = uint64(m.one) * m.rep
	if need := plan.slots * m.words; cap(m.flat) < need {
		m.flat = make([]uint64, need)
	} else {
		m.flat = m.flat[:need]
	}
	if len(m.loaded) < plan.slots {
		m.loaded = make([]uint32, plan.slots)
	}
	if m.stamp++; m.stamp == 0 { // wrapped: no mark may match the new stamp
		clear(m.loaded)
		m.stamp = 1
	}
	for _, c := range loaded {
		m.loaded[c.s] = m.stamp
	}
	for _, s := range plan.zero {
		if m.loaded[s] != m.stamp {
			fill(m.col(s), m.bias)
		}
	}
}

// col returns the words of one slot.
func (m *Machine) col(s int32) []uint64 {
	return m.flat[int(s)*m.words:][:m.words]
}

func fill(s []uint64, v uint64) {
	for i := range s {
		s[i] = v
	}
}

// get and put read and write one row of a slot: the per-lane form
// behind the rare wrapping ops and Column.
func (m *Machine) get(s int32, r int) int64 {
	bit := uint(r) * m.lane
	return int64(m.flat[int(s)*m.words+int(bit>>6)]>>(bit&63)&m.mask) - m.one
}

func (m *Machine) put(s int32, r int, v int64) {
	bit := uint(r) * m.lane
	w := &m.flat[int(s)*m.words+int(bit>>6)]
	*w = *w&^(m.mask<<(bit&63)) | (uint64(v+m.one)&m.mask)<<(bit&63)
}

// Grid is the shape of a load: a grid W positions wide whose rows
// [R0, R1) and columns [Lo, Hi) hold source values — position q = r·W + c
// reads src[(r−R0)·Pitch + (c−Lo)·Stride] — and whose every other
// position is a border position, which reads zero. A run of n is
// {W: n, R1: 1, Hi: n, Pitch: n, Stride: 1}.
type Grid struct {
	W, R0, R1, Lo, Hi, Pitch, Stride int
}

// format returns the whole-word masks that wrap lanes to stored format
// f. The wrap runs once per word, on all its lanes at once: keep
// the format's bits (fmask), add the lane offset, and subtract 2^width
// where the format's sign bit (fsign) is set. No lane carries or borrows
// (the format is narrower than the lane's guarded range), an unsigned
// column has no sign bit, and from 63 bits up every int32 already fits.
func (m *Machine) format(f uint8) (fmask, fsign uint64) {
	fmask = m.mask * m.rep
	if w := uint(f &^ fmtUnsigned); w < 63 {
		fmask = (uint64(1)<<w - 1) * m.rep
		if f&fmtUnsigned == 0 {
			fsign = uint64(1) << (w - 1) * m.rep
		}
	}
	return fmask, fsign
}

// SetRow stores v into row r of dst, wrapped to its stored format: the
// load of a layer with one output position, with no grid to walk.
//
//rtmap:noalloc
func (m *Machine) SetRow(dst Slot, r int, v int32) {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("ap: SetRow row %d outside machine rows %d", r, m.rows))
	}
	fmask, fsign := m.format(dst.fmt)
	x := uint64(v) & m.mask
	m.put(dst.s, r, int64(x&fmask)-int64((x&fsign)<<1))
}

// LoadRows stores positions [q0, q1) of grid g into rows row0, row0+1, …
// of dst, wrapped to its stored format, and zero into the rows of border
// positions: every row of the range is written, so a column loaded this
// way needs no clearing by Reset. It is the simulator's gather, one call
// per column and batch segment. With Stride 1 and Pitch W the valid
// positions are one run, its border lanes put back to zero after; any
// other grid is one run per row.
//
//rtmap:noalloc
func (m *Machine) LoadRows(dst Slot, row0 int, src []int32, g *Grid, q0, q1 int) {
	if row0 < 0 || q0 < 0 || q0 > q1 || row0+q1-q0 > m.rows || g.Lo < 0 || g.Lo > g.Hi || g.Hi > g.W || g.R0 < 0 || g.R0 > g.R1 {
		panic(fmt.Sprintf("ap: LoadRows positions [%d, %d) of grid %+v at row %d outside machine rows %d", q0, q1, *g, row0, m.rows))
	}
	words := m.col(dst.s)
	row0 -= q0 // the row position 0 would land in
	// [a, b): the positions of rows [R0, R1) in the range; the rest are border.
	a, b := max(q0, g.R0*g.W), min(q1, g.R1*g.W)
	if a >= b || g.Lo == g.Hi {
		m.zero(words, row0+q0, q1-q0)
		return
	}
	m.zero(words, row0+q0, a-q0)
	m.zero(words, row0+b, q1-b)
	fmask, fsign := m.format(dst.fmt)
	base := g.R0 * g.W // position of src's row 0
	// ra and rb start the rows of a and b−1: no division where the range
	// starts and ends on the valid rows' bounds, a whole plane's load.
	ra, rb := a, b-g.W
	if a != base {
		ra = a - a%g.W
	}
	if b != g.R1*g.W {
		rb = b - 1 - (b-1)%g.W
	}
	if g.Stride == 1 && g.Pitch == g.W {
		// [va, vb): a's first valid position to the end of b−1's last.
		va, vb := max(a, ra+g.Lo), min(b, rb+g.Hi)
		if a-ra >= g.Hi {
			ra += g.W
			va = ra + g.Lo
		}
		if b-rb <= g.Lo {
			vb = rb - g.W + g.Hi
		}
		if va >= vb {
			m.zero(words, row0+a, b-a)
			return
		}
		m.loadRun(words, row0+va, vb-va, src[va-base-g.Lo:], 1, fmask, fsign)
		// The border positions: before va and after vb, a row's border
		// at most, and each between two rows.
		for r := row0 + a; r < row0+va; r++ {
			m.put(dst.s, r, 0)
		}
		for r := row0 + vb; r < row0+b; r++ {
			m.put(dst.s, r, 0)
		}
		if g.Hi-g.Lo < g.W {
			for q := ra + g.Hi; q < vb; q += g.W {
				for r := row0 + q; r < row0+q+g.W-g.Hi+g.Lo; r++ {
					m.put(dst.s, r, 0)
				}
			}
		}
		return
	}
	for q, off := ra, (ra-base)/g.W*g.Pitch; q < b; q, off = q+g.W, off+g.Pitch {
		c0, c1 := max(q, a), min(q+g.W, b)         // the row's positions in the range
		v0, v1 := max(c0, q+g.Lo), min(c1, q+g.Hi) // and its valid ones
		if v0 >= v1 {
			m.zero(words, row0+c0, c1-c0)
			continue
		}
		m.zero(words, row0+c0, v0-c0)
		m.loadRun(words, row0+v0, v1-v0, src[off+(v0-q-g.Lo)*g.Stride:], g.Stride, fmask, fsign)
		m.zero(words, row0+v1, c1-v1)
	}
}

// zero stores zero into rows [r, r+n) of words, the lanes of whole words
// at once.
//
//rtmap:noalloc
func (m *Machine) zero(words []uint64, r, n int) {
	if n > 0 {
		m.zeroRun(words, r, n)
	}
}

// zeroRun is zero's loop, out of line so that zero inlines and an empty
// range, the common case, costs no call.
//
//rtmap:noalloc
func (m *Machine) zeroRun(words []uint64, r, n int) {
	for n > 0 {
		bit := uint(r) * m.lane
		w, lo := bit>>6, bit&63
		k := min(n, int((64-lo)>>m.lg)) // rows in this word
		if k<<m.lg == 64 {
			words[w] = m.bias
		} else {
			msk := ^uint64(0) >> (64 - uint(k)<<m.lg) << lo
			words[w] = words[w]&^msk | m.bias&msk
		}
		r, n = r+k, n-k
	}
}

// loadRun stores src[0], src[stride], … src[(n-1)·stride] into rows
// [row0, row0+n) of words, gathering, wrapping and merging one word at a
// time; a whole word of a contiguous run is one window of the source,
// and at 16-bit lanes every whole word left goes to the pack kernel.
//
//rtmap:noalloc
func (m *Machine) loadRun(words []uint64, row0, n int, src []int32, stride int, fmask, fsign uint64) {
	lane, per := m.lane, 64>>m.lg
	bit := uint(row0) * lane
	w, lo := int(bit>>6), bit&63
	for i := 0; i < n; w, lo = w+1, 0 {
		var raw uint64
		sh := lo
		if stride == 1 && lo == 0 && i+per <= n {
			if per == 4 {
				k := (n - i) / 4
				kern.pack(words[w:w+k], src[i:i+4*k], fmask, fsign, m.bias)
				i, w = i+4*k, w+k-1 // the loop steps past the last
				continue
			}
			switch s := src[i : i+per]; len(s) {
			case 2:
				raw = uint64(uint32(s[0])) | uint64(uint32(s[1]))<<32
			default:
				raw = uint64(s[0])
			}
			i, sh = i+per, 64
		} else {
			end := min(i+int((64-lo)>>m.lg), n)
			for ; i < end; i, sh = i+1, sh+lane {
				raw |= (uint64(src[i*stride]) & m.mask) << sh
			}
		}
		val := raw&fmask + m.bias - (raw&fsign)<<1
		if sh-lo == 64 {
			words[w] = val
		} else {
			msk := ^uint64(0) >> (64 - (sh - lo)) << lo
			words[w] = words[w]&^msk | val&msk
		}
	}
}

// CopyRows copies rows [srcRow, srcRow+n) of src to [dstRow, dstRow+n) of
// dst by whole words, keeping the rest of dst's last word. Both first rows
// must start a word and the columns share a format, or it panics.
//
//rtmap:noalloc
func (m *Machine) CopyRows(dst Slot, dstRow int, src Slot, srcRow, n int) {
	per := 64 >> m.lg
	if n < 0 || max(dstRow, srcRow)+n > m.rows || (dstRow|srcRow)&(per-1) != 0 || dst.fmt != src.fmt {
		panic(fmt.Sprintf("ap: CopyRows %d rows from slot %+v row %d to slot %+v row %d", n, src, srcRow, dst, dstRow))
	}
	d, s := m.col(dst.s)[dstRow/per:], m.col(src.s)[srcRow/per:]
	k := copy(d[:n/per], s)
	if rem := uint(n-k*per) * m.lane; rem > 0 {
		d[k] ^= (d[k] ^ s[k]) & (1<<rem - 1)
	}
}

// AccumulateColumn adds rows [row0, row0+len(dst)) of col into dst — the
// simulator's inter-strip reduction — one word per 4, 2 or 1 rows (the
// accumulate kernel's at 16-bit lanes), lane by lane only before the
// first word boundary and after the last.
//
//rtmap:noalloc
func (m *Machine) AccumulateColumn(col, row0 int, dst []int32) {
	end := row0 + len(dst)
	if row0 < 0 || end > m.rows {
		panic(fmt.Sprintf("ap: AccumulateColumn rows [%d,%d) outside machine rows %d", row0, end, m.rows))
	}
	per, one, s := 64>>m.lg, int32(m.one), m.plan.slot[col]
	a := min(end, (row0+per-1)&^(per-1))
	b := max(a, end&^(per-1))
	for r := row0; r < a; r++ {
		dst[r-row0] += int32(m.get(s, r))
	}
	for r := b; r < end; r++ {
		dst[r-row0] += int32(m.get(s, r))
	}
	d, words := dst[a-row0:b-row0], m.col(s)[a/per:b/per]
	if per == 4 {
		kern.accumulate(d, words, one)
		return
	}
	for _, x := range words {
		for j := range d[:per] {
			d[j] += int32(x>>(uint(j)*m.lane)&m.mask) - one
		}
		d = d[per:]
	}
}

// Requantize is the AP's peripheral requantize step over a run of
// finished sums: dst[k] = clamp(RoundToEven(src[k]·scale), lo, hi) in
// the requantize kernel, ReLU being lo = 0. The engine applies it per
// finished row block; the software reference keeps its own loop.
//
//rtmap:noalloc
func Requantize(dst, src []int32, scale float64, lo, hi int32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("ap: Requantize %d sums into %d codes", len(src), len(dst)))
	}
	kern.requantize(dst, src, scale, lo, hi)
}

// Column returns a copy of a column's values (tests and debugging; the
// hot path uses AccumulateColumn).
func (m *Machine) Column(col int) []int64 {
	out, s := make([]int64, m.rows), m.plan.slot[col]
	for r := range out {
		out[r] = m.get(s, r)
	}
	return out
}

// runChunk bounds the ops one kernel call runs. A goroutine cannot be
// preempted inside assembly, so an unbroken run of fast ops — tens of
// thousands in a batched conv task — is entered a chunk at a time:
// 1 024 ops at 64 words a slot, ≈ 36 ns each in AVX2, hold the CPU for
// ≈ 37 µs.
const runChunk = 1024

// Run executes the plan over all active rows. It cannot fail and does not
// allocate: every structural error was rejected when the plan was built.
// Each stretch of fast ops — every Add and Sub of a sound compiler
// emission — goes to the run kernel, at most runChunk ops a call;
// an escape takes runEscape. A kernel that stops at a fast op that is
// not an escape found a slot outside the arena: runFastGeneric runs
// that op, and panics with Go's bounds error.
//
//rtmap:noalloc
func (m *Machine) Run() {
	flat, w, bias, ops := m.flat, m.words, m.bias, m.plan.ops
	slots := len(flat) / w
	for i := 0; i < len(ops); {
		chunk := ops[i:min(i+runChunk, len(ops))]
		k := kern.run(flat, chunk, w, bias, slots)
		i += k
		switch {
		case k == len(chunk):
		case chunk[k].dst&opEsc != 0:
			m.runEscape(&m.plan.esc[chunk[k].dst&^opEsc])
			i++
		default:
			i += runFastGeneric(flat, chunk[k:k+1], w, bias, slots)
		}
	}
}

// runEscape executes one op in its full form. Wide ones are word
// arithmetic over whole columns like the fast ops; one whose result may
// leave its destination format runs row by row: decode the operand
// lanes, compute, truncate to the destination's stored format,
// re-encode. The wrap is branchless — v − ((v & sign) << 1) subtracts
// 2·sign exactly when the sign bit of the masked value is set, and an
// unsigned copy destination has no sign bit, so each destination of a
// multi-destination copy wraps with its own signedness.
//
//rtmap:noalloc
func (m *Machine) runEscape(op *escOp) {
	switch {
	case op.kind == planCopyMulti:
		for _, cd := range m.plan.multi[op.ext] {
			if op.wide() {
				copy(m.col(cd.col), m.col(op.a))
			} else {
				m.wrapRows(op, cd.col, cd.unsigned)
			}
		}
	case op.kind == planClear:
		fill(m.col(op.dst), m.bias)
	case !op.wide():
		m.wrapRows(op, op.dst, op.unsigned())
	case op.kind == planCopy:
		copy(m.col(op.dst), m.col(op.a))
	case op.kind == planNeg:
		d, a := m.col(op.dst), m.col(op.a)
		for k := range d {
			d[k] = m.bias<<1 - a[k]
		}
	}
}

//rtmap:noalloc
func (m *Machine) wrapRows(op *escOp, dst int32, unsigned bool) {
	mask, sign := int64(1)<<op.width-1, int64(0)
	if !unsigned {
		sign = int64(1) << (op.width - 1)
	}
	for r := 0; r < m.rows; r++ {
		v := m.get(op.a, r)
		switch op.kind {
		case planAdd:
			v = m.get(op.b, r) + v
		case planSub:
			v = m.get(op.b, r) - v
		case planNeg:
			v = -v
		case planCopy, planCopyMulti, planClear:
			// a copy stores v as it is; a clear never wraps
		}
		v &= mask
		m.put(dst, r, v-(v&sign)<<1)
	}
}
