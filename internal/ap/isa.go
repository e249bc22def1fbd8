package ap

import "fmt"

// Opcode enumerates AP macro-instructions. Arithmetic opcodes expand into
// Width bit-serial LUT steps; Clear expands into Width write-all passes.
type Opcode uint8

const (
	// OpAdd computes Dst = B + A (out-of-place) or B += A when InPlace.
	OpAdd Opcode = iota
	// OpSub computes Dst = B − A (out-of-place) or B −= A when InPlace.
	OpSub
	// OpNeg computes Dst = −A (negated copy into a fresh column).
	OpNeg
	// OpCopy copies A into Dst and every column in Dsts simultaneously
	// (multi-destination write), so later consumers can run in place.
	OpCopy
	// OpClear zeroes Dst across all active rows.
	OpClear
)

var opcodeNames = [...]string{"add", "sub", "neg", "copy", "clear"}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// errUnknownOpcode is the one "unknown opcode" failure every consumer of
// an Opcode reports — validation, bit-serial execution and plan lowering
// wrap this same error so callers and logs see identical text.
func errUnknownOpcode(o Opcode) error {
	return fmt.Errorf("unknown opcode %v", o)
}

// Col describes one operand column of a program: where its LSB lives on
// the nanowire (Base domain), how many bits it stores, and whether values
// are unsigned (bits beyond Width read as 0) or signed (bit Width−1 is
// replicated by holding the DBC at the MSB domain). A Temp column is
// scratch: nothing outside the program reads it, and its value after the
// program's last reference to it is undefined, so the engine may store it
// in an arena slot another temporary used before or uses after.
type Col struct {
	Name     string
	Base     int
	Width    int
	Unsigned bool
	Temp     bool
}

// Instr is one AP macro-instruction.
type Instr struct {
	Op      Opcode
	Dst     int   // destination column id
	Dsts    []int // extra destinations (OpCopy only)
	A       int   // right operand (OpAdd/OpSub/OpNeg/OpCopy)
	B       int   // left operand (OpAdd/OpSub); equals Dst when InPlace
	InPlace bool
	Width   int // bit positions processed (destination width)
}

func (i Instr) String() string {
	switch i.Op {
	case OpAdd, OpSub:
		mode := "out"
		if i.InPlace {
			mode = "in"
		}
		sign := "+"
		if i.Op == OpSub {
			sign = "-"
		}
		return fmt.Sprintf("%s.%s c%d = c%d %s c%d (w%d)", i.Op, mode, i.Dst, i.B, sign, i.A, i.Width)
	case OpNeg:
		return fmt.Sprintf("neg c%d = -c%d (w%d)", i.Dst, i.A, i.Width)
	case OpCopy:
		return fmt.Sprintf("copy c%d%v = c%d (w%d)", i.Dst, i.Dsts, i.A, i.Width)
	case OpClear:
		return fmt.Sprintf("clear c%d (w%d)", i.Dst, i.Width)
	}
	return fmt.Sprintf("%v dst=c%d a=c%d b=c%d w=%d", i.Op, i.Dst, i.A, i.B, i.Width)
}

// Program is a straight-line AP instruction sequence over a column table.
// Column ids index Cols; Carry names the dedicated carry/borrow column
// (single domain, shared by all arithmetic instructions).
type Program struct {
	Cols   []Col
	Carry  int
	Instrs []Instr
}

// Validate checks structural well-formedness of the program.
func (p *Program) Validate() error {
	colOK := func(c int) bool { return c >= 0 && c < len(p.Cols) }
	if !colOK(p.Carry) {
		return fmt.Errorf("ap: carry column %d out of range", p.Carry)
	}
	if p.Cols[p.Carry].Temp {
		return fmt.Errorf("ap: carry column %d is temp", p.Carry)
	}
	for i, ins := range p.Instrs {
		if ins.Width < 1 {
			return fmt.Errorf("ap: instr %d (%v): width %d", i, ins, ins.Width)
		}
		// Every write covers its destination column exactly: values are
		// stored sign-extended to their column width, so partial writes
		// would leave stale upper bits in the nanowire.
		if colOK(ins.Dst) && p.Cols[ins.Dst].Width != ins.Width {
			return fmt.Errorf("ap: instr %d (%v): width %d != dst column width %d",
				i, ins, ins.Width, p.Cols[ins.Dst].Width)
		}
		for _, d := range ins.Dsts {
			if colOK(d) && p.Cols[d].Width != ins.Width {
				return fmt.Errorf("ap: instr %d (%v): width %d != dest column width %d",
					i, ins, ins.Width, p.Cols[d].Width)
			}
		}
		switch ins.Op {
		case OpAdd, OpSub:
			if !colOK(ins.Dst) || !colOK(ins.A) || !colOK(ins.B) {
				return fmt.Errorf("ap: instr %d (%v): column out of range", i, ins)
			}
			if ins.InPlace && ins.Dst != ins.B {
				return fmt.Errorf("ap: instr %d (%v): in-place dst must be B", i, ins)
			}
			if ins.InPlace && ins.A == ins.B {
				// Reading and rewriting one column within a pass breaks
				// the LUT post-state analysis; double a value by copying
				// first instead.
				return fmt.Errorf("ap: instr %d (%v): in-place op cannot read its own destination", i, ins)
			}
			if !ins.InPlace && (ins.Dst == ins.A || ins.Dst == ins.B) {
				return fmt.Errorf("ap: instr %d (%v): out-of-place dst aliases operand", i, ins)
			}
			if ins.Dst == p.Carry || ins.A == p.Carry || ins.B == p.Carry {
				return fmt.Errorf("ap: instr %d (%v): carry column used as operand", i, ins)
			}
		case OpNeg:
			if !colOK(ins.Dst) || !colOK(ins.A) || ins.Dst == ins.A {
				return fmt.Errorf("ap: instr %d (%v): bad neg operands", i, ins)
			}
		case OpCopy:
			if !colOK(ins.Dst) || !colOK(ins.A) || ins.Dst == ins.A {
				return fmt.Errorf("ap: instr %d (%v): bad copy operands", i, ins)
			}
			for _, d := range ins.Dsts {
				if !colOK(d) || d == ins.A {
					return fmt.Errorf("ap: instr %d (%v): bad extra dest %d", i, ins, d)
				}
			}
		case OpClear:
			if !colOK(ins.Dst) {
				return fmt.Errorf("ap: instr %d (%v): bad clear dest", i, ins)
			}
		default:
			return fmt.Errorf("ap: instr %d: %w", i, errUnknownOpcode(ins.Op))
		}
	}
	return nil
}
