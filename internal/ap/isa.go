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
// in an arena slot another temporary used before or uses after. A column
// is known by its index in Program.Cols; it carries no name, so a table
// of them holds no pointer.
type Col struct {
	Base     int
	Width    int
	Unsigned bool
	Temp     bool
}

// Span locates a run of Program.Dsts: entries [Off, Off+N). The zero
// value is the empty run.
type Span struct{ Off, N int32 }

// Instr is one AP macro-instruction. It holds no pointer: a copy's extra
// destinations live in the program's Dsts table, located by Extra
// (Program.ExtraDsts reads them), so a compiled artifact's millions of
// instructions are memory the garbage collector never scans. Op and
// InPlace share a word: an Instr is 48 bytes.
type Instr struct {
	Op      Opcode
	InPlace bool
	Dst     int  // destination column id
	A       int  // right operand (OpAdd/OpSub/OpNeg/OpCopy)
	B       int  // left operand (OpAdd/OpSub); equals Dst when InPlace
	Width   int  // bit positions processed (destination width)
	Extra   Span // extra destinations in Program.Dsts (OpCopy only)
}

// String prints the instruction alone. A copy with extra destinations
// shows where they sit in the program's table; Program.InstrString lists
// them.
func (i Instr) String() string {
	if i.Op == OpCopy && i.Extra.N > 0 {
		return fmt.Sprintf("copy c%d+Dsts[%d:%d] = c%d (w%d)", i.Dst, i.Extra.Off, i.Extra.Off+i.Extra.N, i.A, i.Width)
	}
	return i.format(nil)
}

// InstrString prints instruction n of p, a copy with every destination it
// writes. Instruction n's Extra must lie inside p.Dsts (Validate).
func (p *Program) InstrString(n int) string {
	return p.Instrs[n].format(p.ExtraDsts(&p.Instrs[n]))
}

func (i Instr) format(extra []int) string {
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
		return fmt.Sprintf("copy c%d%v = c%d (w%d)", i.Dst, extra, i.A, i.Width)
	case OpClear:
		return fmt.Sprintf("clear c%d (w%d)", i.Dst, i.Width)
	}
	return fmt.Sprintf("%v dst=c%d a=c%d b=c%d w=%d", i.Op, i.Dst, i.A, i.B, i.Width)
}

// Program is a straight-line AP instruction sequence over a column table.
// Column ids index Cols; Carry names the dedicated carry/borrow column
// (single domain, shared by all arithmetic instructions); Dsts holds the
// extra destinations of multi-destination copies, each instruction's run
// located by its Extra span.
//
// The three tables hold no pointers — a column is an index, never a name
// or a slice — so the runtime allocates them as no-scan memory, and a
// served network's programs add nothing to a GC cycle's marking (see the
// package doc).
type Program struct {
	Cols   []Col
	Carry  int
	Instrs []Instr
	Dsts   []int
}

// ExtraDsts returns the extra destinations of ins, an instruction of p:
// its Extra run of p.Dsts.
func (p *Program) ExtraDsts(ins *Instr) []int {
	return p.Dsts[ins.Extra.Off : ins.Extra.Off+ins.Extra.N]
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
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if e := ins.Extra; e.Off < 0 || e.N < 0 || int(e.Off)+int(e.N) > len(p.Dsts) || e.N > 0 && ins.Op != OpCopy {
			return fmt.Errorf("ap: instr %d (%v): extra destinations outside the program's table or on a non-copy", i, *ins)
		}
		if ins.Width < 1 {
			return fmt.Errorf("ap: instr %d (%s): width %d", i, p.InstrString(i), ins.Width)
		}
		// Every write covers its destination column exactly: values are
		// stored sign-extended to their column width, so partial writes
		// would leave stale upper bits in the nanowire.
		if colOK(ins.Dst) && p.Cols[ins.Dst].Width != ins.Width {
			return fmt.Errorf("ap: instr %d (%s): width %d != dst column width %d",
				i, p.InstrString(i), ins.Width, p.Cols[ins.Dst].Width)
		}
		for _, d := range p.ExtraDsts(ins) {
			if colOK(d) && p.Cols[d].Width != ins.Width {
				return fmt.Errorf("ap: instr %d (%s): width %d != dest column width %d",
					i, p.InstrString(i), ins.Width, p.Cols[d].Width)
			}
		}
		switch ins.Op {
		case OpAdd, OpSub:
			if !colOK(ins.Dst) || !colOK(ins.A) || !colOK(ins.B) {
				return fmt.Errorf("ap: instr %d (%s): column out of range", i, p.InstrString(i))
			}
			if ins.InPlace && ins.Dst != ins.B {
				return fmt.Errorf("ap: instr %d (%s): in-place dst must be B", i, p.InstrString(i))
			}
			if ins.InPlace && ins.A == ins.B {
				// Reading and rewriting one column within a pass breaks
				// the LUT post-state analysis; double a value by copying
				// first instead.
				return fmt.Errorf("ap: instr %d (%s): in-place op cannot read its own destination", i, p.InstrString(i))
			}
			if !ins.InPlace && (ins.Dst == ins.A || ins.Dst == ins.B) {
				return fmt.Errorf("ap: instr %d (%s): out-of-place dst aliases operand", i, p.InstrString(i))
			}
			if ins.Dst == p.Carry || ins.A == p.Carry || ins.B == p.Carry {
				return fmt.Errorf("ap: instr %d (%s): carry column used as operand", i, p.InstrString(i))
			}
		case OpNeg:
			if !colOK(ins.Dst) || !colOK(ins.A) || ins.Dst == ins.A {
				return fmt.Errorf("ap: instr %d (%s): bad neg operands", i, p.InstrString(i))
			}
		case OpCopy:
			if !colOK(ins.Dst) || !colOK(ins.A) || ins.Dst == ins.A {
				return fmt.Errorf("ap: instr %d (%s): bad copy operands", i, p.InstrString(i))
			}
			for _, d := range p.ExtraDsts(ins) {
				if !colOK(d) || d == ins.A {
					return fmt.Errorf("ap: instr %d (%s): bad extra dest %d", i, p.InstrString(i), d)
				}
			}
		case OpClear:
			if !colOK(ins.Dst) {
				return fmt.Errorf("ap: instr %d (%s): bad clear dest", i, p.InstrString(i))
			}
		default:
			return fmt.Errorf("ap: instr %d: %w", i, errUnknownOpcode(ins.Op))
		}
	}
	return nil
}
