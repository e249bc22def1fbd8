package ap

import "fmt"

// Exec runs program p bit-serially, issuing the exact masked-search and
// tagged-write passes of the generated LUTs, and returns every column's
// row values after the last instruction. vals[c] holds column c's row
// values on entry: nil for a column that starts at zero, the others one
// length, the row count. Each column is stored truncated to its width,
// as a nanowire holds it, and read back per its signedness. This is the
// cycle-faithful reference below the engine: Machine is checked against
// it on randomized programs.
func Exec(p *Program, vals [][]int64) ([][]int64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(vals) > len(p.Cols) {
		return nil, fmt.Errorf("ap: %d value columns for a %d-column program", len(vals), len(p.Cols))
	}
	rows := 0
	for _, v := range vals {
		rows = max(rows, len(v))
	}
	for c, v := range vals {
		if v != nil && len(v) != rows {
			return nil, fmt.Errorf("ap: column %d has %d rows, want %d", c, len(v), rows)
		}
	}
	a := newBitArray(p, rows)
	for c, v := range vals {
		a.store(c, v)
	}

	carryCol := p.Carry
	carryBase := p.Cols[p.Carry].Base

	for idx, ins := range p.Instrs {
		if err := execInstr(a, p, ins, carryCol, carryBase); err != nil {
			return nil, fmt.Errorf("ap: instr %d (%s): %w", idx, p.InstrString(idx), err)
		}
	}
	out := make([][]int64, len(p.Cols))
	for c := range out {
		out[c] = a.load(c)
	}
	return out, nil
}

// operand describes one source column during bit-serial execution.
type operand struct {
	col  int
	meta Col
}

// domainAt returns the domain to align for bit k and whether the operand
// still contributes (false once an unsigned operand is exhausted).
func (o operand) domainAt(k int) (int, bool) {
	if k < o.meta.Width {
		return o.meta.Base + k, true
	}
	if o.meta.Unsigned {
		return 0, false
	}
	return o.meta.Base + o.meta.Width - 1, true // hold at sign bit
}

func execInstr(a *bitArray, p *Program, ins Instr, carryCol, carryBase int) error {
	switch ins.Op {
	case OpClear:
		d := p.Cols[ins.Dst]
		for k := 0; k < ins.Width; k++ {
			a.align(ins.Dst, d.Base+k)
			a.writeAll([]keyBit{{col: ins.Dst, bit: 0}})
		}
		return nil

	case OpCopy:
		src := operand{ins.A, p.Cols[ins.A]}
		dests := append([]int{ins.Dst}, p.ExtraDsts(&ins)...)
		for k := 0; k < ins.Width; k++ {
			clear := make([]keyBit, 0, len(dests))
			for _, d := range dests {
				a.align(d, p.Cols[d].Base+k)
				clear = append(clear, keyBit{col: d, bit: 0})
			}
			a.writeAll(clear)
			dom, present := src.domainAt(k)
			if !present {
				continue // exhausted unsigned source: bits stay zero
			}
			a.align(src.col, dom)
			for _, pass := range CopyOut.Passes {
				a.search([]keyBit{{col: src.col, bit: pass.Key[0]}})
				w := make([]keyBit, 0, len(dests))
				for _, d := range dests {
					w = append(w, keyBit{col: d, bit: pass.Out[0]})
				}
				a.writeTagged(w)
			}
		}
		return nil

	case OpAdd, OpSub, OpNeg:
		return execArith(a, p, ins, carryCol, carryBase)
	default:
		return errUnknownOpcode(ins.Op)
	}
}

func execArith(a *bitArray, p *Program, ins Instr, carryCol, carryBase int) error {
	// Clear the carry/borrow column once per instruction.
	a.align(carryCol, carryBase)
	a.writeAll([]keyBit{{col: carryCol, bit: 0}})

	var opA, opB operand
	hasB := ins.Op != OpNeg
	opA = operand{ins.A, p.Cols[ins.A]}
	if hasB {
		opB = operand{ins.B, p.Cols[ins.B]}
	}
	dstMeta := p.Cols[ins.Dst]

	for k := 0; k < ins.Width; k++ {
		aDom, aOK := opA.domainAt(k)
		if aOK {
			a.align(opA.col, aDom)
		}
		bOK := false
		if hasB {
			var bDom int
			bDom, bOK = opB.domainAt(k)
			if bOK {
				a.align(opB.col, bDom)
			}
		}
		if !ins.InPlace {
			a.align(ins.Dst, dstMeta.Base+k)
			a.writeAll([]keyBit{{col: ins.Dst, bit: 0}})
		}

		lut, search, write := selectLUT(ins, carryCol, opA.col, opB.col, ins.Dst, aOK, bOK)
		for _, pass := range lut.Passes {
			key := make([]keyBit, len(search))
			for i, c := range search {
				key[i] = keyBit{col: c, bit: pass.Key[i]}
			}
			a.search(key)
			out := make([]keyBit, len(write))
			for i, c := range write {
				out[i] = keyBit{col: c, bit: pass.Out[i]}
			}
			a.writeTagged(out)
		}
	}
	return nil
}

// selectLUT picks the LUT variant for one bit position given operand
// availability, returning the search and write column lists in role
// order. Exhausted unsigned operands degrade the op to its
// carry/borrow-ripple variant, which is both physically accurate and
// cheaper — the "custom integer types" optimization of §IV-A.
func selectLUT(ins Instr, carry, colA, colB, dst int, aOK, bOK bool) (*LUT, []int, []int) {
	res := dst
	if ins.InPlace {
		res = colB
	}
	switch ins.Op {
	case OpAdd:
		if ins.InPlace {
			if aOK {
				return AddIn, []int{carry, colB, colA}, []int{carry, colB}
			}
			return AddInNoA, []int{carry, colB}, []int{carry, colB}
		}
		switch {
		case aOK && bOK:
			return AddOut, []int{carry, colB, colA}, []int{carry, res}
		case bOK:
			return AddOutNoA, []int{carry, colB}, []int{carry, res}
		case aOK:
			return AddOutNoA, []int{carry, colA}, []int{carry, res}
		default:
			return AddOutCarryOnly, []int{carry}, []int{carry, res}
		}
	case OpSub:
		if ins.InPlace {
			if aOK {
				return SubIn, []int{carry, colB, colA}, []int{carry, colB}
			}
			return SubInNoA, []int{carry, colB}, []int{carry, colB}
		}
		switch {
		case aOK && bOK:
			return SubOut, []int{carry, colB, colA}, []int{carry, res}
		case bOK:
			return SubOutNoA, []int{carry, colB}, []int{carry, res}
		case aOK:
			return NegOut, []int{carry, colA}, []int{carry, res}
		default:
			return SubOutBorrowOnly, []int{carry}, []int{carry, res}
		}
	case OpNeg:
		if aOK {
			return NegOut, []int{carry, colA}, []int{carry, res}
		}
		return SubOutBorrowOnly, []int{carry}, []int{carry, res}
	default:
		panic("ap: selectLUT on non-arithmetic op")
	}
}

// keyBit selects one column of a search key or write pattern.
type keyBit struct {
	col int
	bit uint8
}

// bitArray is the CAM Exec runs on: for each program column, one row
// bitset per stored bit, the bit its access port is aligned to, and one
// tag register over the rows. Searches compare, and writes change, only
// the aligned bit of each named column.
type bitArray struct {
	cols  []Col
	rows  int
	live  []uint64     // row mask: bit r of word r/64 set for every row
	plane [][][]uint64 // [column][bit][word]
	at    []int        // aligned bit per column
	tag   []uint64
}

func newBitArray(p *Program, rows int) *bitArray {
	words := (rows + 63) / 64
	a := &bitArray{
		cols:  p.Cols,
		rows:  rows,
		live:  make([]uint64, words),
		plane: make([][][]uint64, len(p.Cols)),
		at:    make([]int, len(p.Cols)),
		tag:   make([]uint64, words),
	}
	for r := 0; r < rows; r++ {
		a.live[r/64] |= 1 << (r % 64)
	}
	for c, meta := range p.Cols {
		a.plane[c] = make([][]uint64, meta.Width)
		for k := range a.plane[c] {
			a.plane[c][k] = make([]uint64, words)
		}
	}
	return a
}

// store writes vals into column c, truncated to the column's width.
func (a *bitArray) store(c int, vals []int64) {
	for k, bits := range a.plane[c] {
		for r, v := range vals {
			bits[r/64] |= uint64(v>>k&1) << (r % 64)
		}
	}
}

// load reads column c back: sign-extended from its top bit when signed,
// zero-extended when unsigned.
func (a *bitArray) load(c int) []int64 {
	meta := a.cols[c]
	out := make([]int64, a.rows)
	for k, bits := range a.plane[c] {
		for r := range out {
			out[r] |= int64(bits[r/64]>>(r%64)&1) << k
		}
	}
	if !meta.Unsigned && 0 < meta.Width && meta.Width < 64 {
		for r, v := range out {
			if v>>(meta.Width-1)&1 != 0 {
				out[r] = v - 1<<meta.Width
			}
		}
	}
	return out
}

// align moves column col's access port to the given domain.
func (a *bitArray) align(col, domain int) { a.at[col] = domain - a.cols[col].Base }

// search latches into the tag register every row whose aligned bits
// match the key.
func (a *bitArray) search(key []keyBit) {
	for w, m := range a.live {
		for _, kb := range key {
			bits := a.plane[kb.col][a.at[kb.col]][w]
			if kb.bit&1 == 0 {
				bits = ^bits
			}
			m &= bits
		}
		a.tag[w] = m
	}
}

// writeTagged writes the pattern into the aligned bits of every tagged
// row: the second phase of a LUT pass.
func (a *bitArray) writeTagged(pattern []keyBit) { a.write(pattern, a.tag) }

// writeAll writes the pattern into every row without a preceding search
// (clearing fresh result and carry columns).
func (a *bitArray) writeAll(pattern []keyBit) { a.write(pattern, a.live) }

func (a *bitArray) write(pattern []keyBit, rows []uint64) {
	for _, kb := range pattern {
		bits := a.plane[kb.col][a.at[kb.col]]
		for w, m := range rows {
			bits[w] &^= m
			if kb.bit&1 != 0 {
				bits[w] |= m
			}
		}
	}
}
