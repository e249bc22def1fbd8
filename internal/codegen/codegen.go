package codegen

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rtmap/internal/ap"
	"rtmap/internal/dfg"
)

// Layout fixes the physical column map of one AP strip for one layer tile.
// Computed by the compiler driver (internal/core) from the layer shape and
// the array geometry.
type Layout struct {
	K       int // patch size Fh·Fw (input columns per plane)
	ActBits int // activation code width
	// Unsigned activations (post-ReLU codes). Signed activations (the
	// residual alignment grids) store ActBits two's-complement bits.
	ActUnsigned bool
	AccWidth    int // accumulator (partial sum over all channels) width
	TileSize    int // accumulators in this tile
	// AccSlots is how many accumulators stack along one column's domains
	// (⌊domains/AccWidth⌋ — the "true multi-bit storage" of §III). The
	// accumulator of tile row o lives in column AccCols[o/AccSlots] at
	// domain base (o mod AccSlots)·AccWidth.
	AccSlots int

	Planes        int // input column sets
	ChansPerPlane int // channel slots stacked along each input cell's domains

	InputCols [][]int // [plane][K] physical columns
	AccCols   []int   // [⌈TileSize/AccSlots⌉] physical columns
	CarryCol  int     // physical carry/borrow column
	TempCols  []int   // physical temp pool

	InputBase int // domain of channel slot 0 in input cells
	AccBase   int // domain of accumulator LSBs
	CarryBase int // carry domain
}

// Validate checks the layout's internal consistency.
func (l Layout) Validate() error {
	if l.K <= 0 || l.ActBits <= 0 || l.AccWidth <= 0 || l.TileSize <= 0 {
		return fmt.Errorf("codegen: non-positive layout fields %+v", l)
	}
	if len(l.InputCols) != l.Planes {
		return fmt.Errorf("codegen: %d input plane column sets, want %d", len(l.InputCols), l.Planes)
	}
	for p, cols := range l.InputCols {
		if len(cols) != l.K {
			return fmt.Errorf("codegen: plane %d has %d columns, want %d", p, len(cols), l.K)
		}
	}
	if l.AccSlots < 1 {
		return fmt.Errorf("codegen: non-positive accumulator slots")
	}
	if want := (l.TileSize + l.AccSlots - 1) / l.AccSlots; len(l.AccCols) != want {
		return fmt.Errorf("codegen: %d accumulator columns, want %d", len(l.AccCols), want)
	}
	if l.ChansPerPlane <= 0 {
		return fmt.Errorf("codegen: non-positive channel slots per plane")
	}
	return nil
}

// ChannelCapacity returns how many channels one strip holds resident.
func (l Layout) ChannelCapacity() int { return l.Planes * l.ChansPerPlane }

// Stats is the price of tile programs, read from their instructions
// (statsOf) and summed over tiles and strips: the cost model prices the
// programs the engine runs and the audits prove, kept or not.
type Stats struct {
	DFGOps     int // add/sub instructions into temporaries (channel-wise DFG phase)
	DFGBitsIn  int // Σ widths of in-place DFG ops
	DFGBitsOut int // Σ widths of out-of-place DFG ops
	AccumOps   int // add/sub instructions into accumulators (accumulation phase)
	Clears     int // accumulator clears
	ShiftSteps int // estimated DBC steps (sequential bit access + channel advance)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.DFGOps += o.DFGOps
	s.DFGBitsIn += o.DFGBitsIn
	s.DFGBitsOut += o.DFGBitsOut
	s.AccumOps += o.AccumOps
	s.Clears += o.Clears
	s.ShiftSteps += o.ShiftSteps
}

// statsOf prices a tile program of chans channel fragments, channel slots
// chanShift (K·ActBits) domains apart. Besides clears, codegen emits adds
// and subs: into a Temp column a DFG op, else an accumulate. ShiftSteps
// estimates the DBC steps: ~3 columns advance bit by bit through a DFG op,
// 2 through an accumulate, and each input plane one slot per fragment.
func statsOf(p *ap.Program, chans, chanShift int) Stats {
	s := Stats{ShiftSteps: chans * chanShift}
	for _, in := range p.Instrs {
		switch {
		case in.Op == ap.OpClear:
			s.Clears++
		case !p.Cols[in.Dst].Temp:
			s.AccumOps++
			s.ShiftSteps += 2 * in.Width
		default:
			s.DFGOps++
			s.ShiftSteps += 3 * in.Width
			if in.InPlace {
				s.DFGBitsIn += in.Width
			} else {
				s.DFGBitsOut += in.Width
			}
		}
	}
	return s
}

// TileProgram is the emitted program of one tile on one strip, with the
// bindings the functional simulator needs to load inputs and read results.
type TileProgram struct {
	Prog *ap.Program
	Phys []int // virtual → physical column map
	// InputBinding lists, per virtual input column, the (resident channel
	// index, patch position) it carries.
	InputBindings map[int][2]int
	AccVirt       []int // virtual accumulator columns, tile-row order
	// ChanAt is the first instruction of each resident channel's
	// fragment, in channel order; the instructions before ChanAt[0] clear
	// the accumulators. Parts cuts the program there.
	ChanAt []int
	Stats  Stats // Prog's price (statsOf)

	planOnce sync.Once
	plan     *ap.ExecPlan
	planErr  error

	partsMu sync.Mutex // guards parts and loads
	parts   map[int][]Part
	loads   map[int][]PartLoads
}

// ExecPlan returns Prog lowered for repeated execution, built on first
// use and memoized on the tile program — every strip replica, row group,
// batch item and (through the compiled-artifact cache, which shares tile
// programs by reference) every compile replays the same plan without
// re-validating or re-resolving the instruction stream.
func (tp *TileProgram) ExecPlan() (*ap.ExecPlan, error) {
	tp.planOnce.Do(func() { tp.plan, tp.planErr = ap.NewExecPlan(tp.Prog) })
	return tp.plan, tp.planErr
}

// Part is one part of a tile program: the accumulator clears, then the
// fragments of resident channels [Chan0, Chan1), instructions [Lo, Hi).
// Each fragment has its own temporaries, reads only its own channel's
// inputs and touches the accumulators only by acc = acc ± x, so a part
// computes exactly its channels' partial sums, and the parts of a program
// sum to what the program computes. Plan is the view of the program's
// ExecPlan that runs those instructions (ap.ExecPlan.Part); AuditParts
// proves the cut, so no view is audited on its own.
type Part struct {
	Plan         *ap.ExecPlan
	Chan0, Chan1 int
	Lo, Hi       int
}

// Parts cuts the program into at most g parts, runs of whole channel
// fragments balanced by op count, one per channel at most. g ≤ 1, or a
// program of one channel, is the one part that runs everything. Memoized
// per g, as ExecPlan is, so replay allocates nothing once a shape has
// been seen.
func (tp *TileProgram) Parts(g int) ([]Part, error) {
	plan, err := tp.ExecPlan()
	if err != nil {
		return nil, err
	}
	tp.partsMu.Lock()
	defer tp.partsMu.Unlock()
	return tp.cut(plan, g), nil
}

// cut is Parts under partsMu.
func (tp *TileProgram) cut(plan *ap.ExecPlan, g int) []Part {
	n := len(tp.ChanAt)
	g = max(1, min(g, n))
	if ps, ok := tp.parts[g]; ok {
		return ps
	}
	var ps []Part
	if g == 1 {
		ps = []Part{{Plan: plan, Chan1: math.MaxInt, Hi: len(tp.Prog.Instrs)}} // every channel
	} else {
		head, end := tp.ChanAt[0], len(tp.Prog.Instrs)
		at := func(c int) int { // the first instruction of fragment c, end for c = n
			if c == n {
				return end
			}
			return tp.ChanAt[c]
		}
		c0 := 0
		for k := 1; k <= g; k++ {
			// The boundary nearest k/g of the fragments' ops, leaving
			// each part one channel at least.
			c1, target := c0+1, head+(end-head)*k/g
			for c1 < n-(g-k) && at(c1+1)-target <= target-at(c1) {
				c1++
			}
			if k == g {
				c1 = n
			}
			ps = append(ps, Part{Plan: plan.Part(head, at(c0), at(c1)), Chan0: c0, Chan1: c1, Lo: at(c0), Hi: at(c1)})
			c0 = c1
		}
	}
	if tp.parts == nil {
		tp.parts = make(map[int][]Part)
	}
	tp.parts[g] = ps
	return ps
}

// Tap is where one patch position of a layer reads a channel's input
// plane, the same for every channel. Grid spans the layer's whole output
// plane: its valid rows and columns are the output positions whose patch
// position lands inside the input, and a tap with none is a padding tap.
// Base is the offset in the plane of the grid's first source element.
// In a layer whose kernel rows lie whole output rows apart, From is the
// patch position of kernel row pad in the tap's kernel column, whose
// column holds the tap's rows Shift rows further on; elsewhere, and for
// kernel row pad itself, From is -1.
type Tap struct {
	Grid        ap.Grid
	Base        int
	From, Shift int
}

// Load is one input column's entry in a part's load list: column Col,
// resolved to its slot and format, loads its tap's Grid from the layer's
// input tensor, whose element Base is the grid's first source element.
// A nonzero Shift, a whole number of the plan's words, says that column
// Src of the same channel holds this column's rows Shift rows on: the
// rows it has a source for may be copied from it. Shift 0: no source.
type Load struct {
	Col, Src ap.Slot
	Grid     ap.Grid
	Base     int
	Shift    int
}

// PartLoads is the load list of one part: an entry for each input column
// of the part's channels whose tap lands in the input, in column order
// with the columns that copy from another last, so every source is
// loaded before a column copies from it. Cols are the entries' columns,
// the ones ap.Machine.Reset leaves to the loads; a padding tap's column
// is in none and stays as Reset clears it.
type PartLoads struct {
	Loads []Load
	Cols  []ap.Slot
}

// Loads returns the load lists of Parts(g)'s parts over a layer's taps
// (one per patch position), the input channel of each resident channel
// and the size of a channel plane. Memoized per g like Parts: the
// geometry is the layer's, fixed per program (the compile cache keys a
// program on its layer's shapes), so a later call's is not read.
func (tp *TileProgram) Loads(g int, taps []Tap, channels []int, plane int) ([]PartLoads, error) {
	plan, err := tp.ExecPlan()
	if err != nil {
		return nil, err
	}
	tp.partsMu.Lock()
	defer tp.partsMu.Unlock()
	ps := tp.cut(plan, g)
	if ls, ok := tp.loads[len(ps)]; ok {
		return ls, nil
	}
	cols := make([]int, 0, len(tp.InputBindings))
	virt := make([]int, len(tp.ChanAt)*len(taps)) // ch·K + k: 1 + the column bound to it, 0: none
	for v, bind := range tp.InputBindings {
		cols = append(cols, v)
		virt[bind[0]*len(taps)+bind[1]] = v + 1
	}
	slices.Sort(cols)
	ls := make([]PartLoads, len(ps))
	for i, pt := range ps {
		per := 64 / pt.Plan.LaneBits()
		var copies []Load
		for _, v := range cols {
			bind := tp.InputBindings[v]
			ch, t := bind[0], &taps[bind[1]]
			if ch < pt.Chan0 || ch >= pt.Chan1 || t.Grid.R0 == t.Grid.R1 || t.Grid.Lo == t.Grid.Hi {
				continue
			}
			ld := Load{Col: pt.Plan.Slot(v), Grid: t.Grid, Base: channels[ch]*plane + t.Base}
			if t.From >= 0 && t.Shift&(per-1) == 0 {
				if src := virt[ch*len(taps)+t.From]; src > 0 {
					ld.Src, ld.Shift = pt.Plan.Slot(src-1), t.Shift
					copies = append(copies, ld)
					continue
				}
			}
			ls[i].Loads = append(ls[i].Loads, ld)
		}
		ls[i].Loads = append(ls[i].Loads, copies...)
		for _, ld := range ls[i].Loads {
			ls[i].Cols = append(ls[i].Cols, ld.Col)
		}
	}
	if tp.loads == nil {
		tp.loads = make(map[int][]PartLoads)
	}
	tp.loads[len(ps)] = ls
	return ls, nil
}

// TileBuilder incrementally emits the program of one tile: accumulator
// clears first, then one channel fragment per resident channel.
type TileBuilder struct {
	lay  Layout
	prog *ap.Program
	phys []int
	pool *columnPool

	accVirt []int
	chanAt  []int
	inBind  map[int][2]int
	// inVirt reverses inBind: entry ch·K + k is 1 + the virtual column of
	// patch position k of resident channel ch, 0 while it has none.
	inVirt   []int
	frag     fragment
	finished bool
}

// fragment is AddChannel's per-node and per-group scratch, kept by the
// builder so that a tile of thousands of fragments allocates it once.
type fragment struct {
	last, uses, group, refcount, inputIdx, firstOut, nextOut []int // per node (nextOut: per output)
	groupWidth, groupFinal, groupVirt                        []int // per chain group
}

// NewTileBuilder lays out carry and accumulators and emits the initial
// accumulator clears.
func NewTileBuilder(lay Layout) (*TileBuilder, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	b := &TileBuilder{
		lay:    lay,
		prog:   &ap.Program{},
		pool:   newColumnPool(lay.TempCols),
		inBind: make(map[int][2]int),
		inVirt: make([]int, lay.ChannelCapacity()*lay.K),
	}
	// Virtual column 0: carry.
	b.prog.Carry = b.newVirt(ap.Col{Base: lay.CarryBase, Width: 1}, lay.CarryCol)
	for i := 0; i < lay.TileSize; i++ {
		v := b.newVirt(ap.Col{
			Base:  lay.AccBase + (i%lay.AccSlots)*lay.AccWidth,
			Width: lay.AccWidth,
		}, lay.AccCols[i/lay.AccSlots])
		b.accVirt = append(b.accVirt, v)
		b.prog.Instrs = append(b.prog.Instrs, ap.Instr{Op: ap.OpClear, Dst: v, Width: lay.AccWidth})
	}
	return b, nil
}

func (b *TileBuilder) newVirt(c ap.Col, phys int) int {
	b.prog.Cols = append(b.prog.Cols, c)
	b.phys = append(b.phys, phys)
	return len(b.prog.Cols) - 1
}

// Reserve makes room for the fragments of graphs, so that a program's
// instruction stream and column tables are allocated once: a fragment
// emits one instruction per add/sub node and one accumulate per nonzero
// output, and adds a column for each input it reads and each chain of
// ops it starts (AddChannel).
func (b *TileBuilder) Reserve(graphs []*dfg.Graph) {
	n, cols := 0, 0
	for _, g := range graphs {
		n += g.NumOps()
		for _, ref := range g.Outputs {
			if !ref.Zero {
				n++
			}
		}
		uses := g.UseCounts(b.frag.uses)
		for i, nd := range g.Nodes {
			switch {
			case uses[i] == 0:
			case nd.Kind == dfg.OpInput:
				cols++
			case !isOp(g, nd.A) || uses[nd.A] != 1:
				cols++
			}
		}
		b.frag.uses = uses
	}
	b.prog.Instrs = slices.Grow(b.prog.Instrs, n)
	b.prog.Cols = slices.Grow(b.prog.Cols, cols)
	b.phys = slices.Grow(b.phys, cols)
}

// isOp reports whether node i of g is an add or a sub.
func isOp(g *dfg.Graph, i int) bool {
	k := g.Nodes[i].Kind
	return k == dfg.OpAdd || k == dfg.OpSub
}

// inputVirt returns (creating lazily) the virtual column of patch position
// k for resident channel ch.
func (b *TileBuilder) inputVirt(ch, k int) int {
	if v := b.inVirt[ch*b.lay.K+k]; v > 0 {
		return v - 1
	}
	key := [2]int{ch, k}
	plane := ch / b.lay.ChansPerPlane
	slot := ch % b.lay.ChansPerPlane
	v := b.newVirt(ap.Col{
		Base:     b.lay.InputBase + slot*b.lay.ActBits,
		Width:    b.lay.ActBits,
		Unsigned: b.lay.ActUnsigned,
	}, b.lay.InputCols[plane][k])
	b.inBind[v] = key
	b.inVirt[ch*b.lay.K+k] = v + 1
	return v
}

// AddChannel emits the channel-wise DFG fragment of one resident channel:
// the slice DFG g (outputs = this tile's rows, widths annotated) followed
// by the accumulate step of every nonzero row. ch is the channel's
// resident index within the strip (selects plane and domain slot);
// channels are added in resident order, so fragment i is channel i.
func (b *TileBuilder) AddChannel(ch int, g *dfg.Graph) error {
	if b.finished {
		return fmt.Errorf("codegen: builder already finished")
	}
	if ch < 0 || ch >= b.lay.ChannelCapacity() {
		return fmt.Errorf("codegen: channel index %d beyond capacity %d", ch, b.lay.ChannelCapacity())
	}
	if ch != len(b.chanAt) {
		return fmt.Errorf("codegen: channel %d added after %d channels; add them in resident order", ch, len(b.chanAt))
	}
	if len(g.Outputs) != b.lay.TileSize {
		return fmt.Errorf("codegen: graph has %d outputs, tile has %d accumulators",
			len(g.Outputs), b.lay.TileSize)
	}
	if err := g.Validate(); err != nil {
		return err
	}
	b.chanAt = append(b.chanAt, len(b.prog.Instrs))

	f := &b.frag
	f.last = liveness(g, f.last)
	f.uses = g.UseCounts(f.uses)
	last, uses := f.last, f.uses

	// Chain grouping: node n joins its left operand's group when that
	// operand is a single-use op node — those ops run in place on one
	// shared column at the chain's maximum width.
	f.group = fill(f.group, len(g.Nodes), -1)
	group := f.group
	groupWidth, groupFinal := f.groupWidth[:0], f.groupFinal[:0] // per group: widest node, last node
	for i, nd := range g.Nodes {
		if !isOp(g, i) || last[i] < 0 {
			continue
		}
		if isOp(g, nd.A) && uses[nd.A] == 1 && group[nd.A] >= 0 {
			group[i] = group[nd.A]
		} else {
			group[i] = len(groupWidth)
			groupWidth = append(groupWidth, 0)
			groupFinal = append(groupFinal, 0)
		}
		if g.Nodes[i].Bits > groupWidth[group[i]] {
			groupWidth[group[i]] = g.Nodes[i].Bits
		}
		groupFinal[group[i]] = i
	}

	f.groupWidth, f.groupFinal = groupWidth, groupFinal

	// groupVirt is each group's virtual column while it holds one, else -1.
	f.groupVirt = fill(f.groupVirt, len(groupWidth), -1)
	groupVirt := f.groupVirt
	f.refcount = append(f.refcount[:0], uses...)
	refcount := f.refcount

	f.inputIdx = fill(f.inputIdx, len(g.Nodes), 0) // node id → patch position
	inputIdx := f.inputIdx
	for k, id := range g.Inputs {
		inputIdx[id] = k
	}

	// loc returns the virtual column holding node id's value.
	loc := func(id int) int {
		if g.Nodes[id].Kind == dfg.OpInput {
			return b.inputVirt(ch, inputIdx[id])
		}
		v := groupVirt[group[id]]
		if v < 0 {
			panic(fmt.Sprintf("codegen: node %d consumed before definition", id))
		}
		return v
	}
	// consume decrements a node's refcount and frees its group column
	// when the group's final value is fully consumed.
	consume := func(id int) {
		refcount[id]--
		if g.Nodes[id].Kind == dfg.OpInput {
			return
		}
		gid := group[id]
		if groupFinal[gid] == id && refcount[id] == 0 {
			b.pool.put(b.phys[groupVirt[gid]])
			groupVirt[gid] = -1
		}
	}

	// Outputs listed by defining node, in output order, so each row's
	// accumulate step is emitted as soon as its value exists — releasing
	// the row chain's column before the next row starts (otherwise every
	// row of the tile would hold a live temp column until the end of the
	// fragment). firstOut[n] is 1 + n's first output, nextOut[o] 1 + the
	// output after o; 0 ends a list.
	f.firstOut, f.nextOut = fill(f.firstOut, len(g.Nodes), 0), fill(f.nextOut, len(g.Outputs), 0)
	firstOut, nextOut := f.firstOut, f.nextOut
	for o := len(g.Outputs) - 1; o >= 0; o-- {
		if ref := g.Outputs[o]; !ref.Zero {
			nextOut[o] = firstOut[ref.Node]
			firstOut[ref.Node] = o + 1
		}
	}
	emitAccum := func(nodeID int) {
		for o := firstOut[nodeID] - 1; o >= 0; o = nextOut[o] - 1 {
			ref := g.Outputs[o]
			opc := ap.OpAdd
			if ref.Neg {
				opc = ap.OpSub
			}
			src := loc(nodeID)
			acc := b.accVirt[o]
			b.prog.Instrs = append(b.prog.Instrs, ap.Instr{
				Op: opc, Dst: acc, A: src, B: acc, InPlace: true, Width: b.lay.AccWidth,
			})
			consume(nodeID)
		}
	}

	// Emit DFG ops, draining each value's accumulates eagerly.
	for i, nd := range g.Nodes {
		if !isOp(g, i) || last[i] < 0 {
			continue
		}
		gid := group[i]
		w := groupWidth[gid]
		opc := ap.OpAdd
		if nd.Kind == dfg.OpSub {
			opc = ap.OpSub
		}
		if v := groupVirt[gid]; v >= 0 {
			// Chain continuation: left operand already lives in the
			// group column; operate in place.
			aV := loc(nd.B)
			b.prog.Instrs = append(b.prog.Instrs, ap.Instr{
				Op: opc, Dst: v, A: aV, B: v, InPlace: true, Width: w,
			})
			consume(nd.B)
			refcount[nd.A]-- // chain value consumed structurally
		} else {
			phys, err := b.pool.get()
			if err != nil {
				return fmt.Errorf("codegen: channel %d node %d: %w", ch, i, err)
			}
			// A pool column is scratch the AP recycles: Temp.
			v := b.newVirt(ap.Col{Base: 0, Width: w, Temp: true}, phys)
			groupVirt[gid] = v
			bV := loc(nd.A)
			aV := loc(nd.B)
			b.prog.Instrs = append(b.prog.Instrs, ap.Instr{
				Op: opc, Dst: v, A: aV, B: bV, Width: w,
			})
			consume(nd.A)
			consume(nd.B)
		}
		emitAccum(i)
	}

	// Accumulates of alias rows: outputs that reference an input column
	// directly (single-term rows of the slice).
	for id := range g.Nodes {
		if g.Nodes[id].Kind == dfg.OpInput {
			emitAccum(id)
		}
	}
	return nil
}

// Finish validates and returns the tile program.
func (b *TileBuilder) Finish() (*TileProgram, error) {
	if b.finished {
		return nil, fmt.Errorf("codegen: builder already finished")
	}
	b.finished = true
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return &TileProgram{
		Prog:          b.prog,
		Phys:          b.phys,
		InputBindings: b.inBind,
		AccVirt:       b.accVirt,
		ChanAt:        b.chanAt,
		Stats:         statsOf(b.prog, len(b.chanAt), b.lay.K*b.lay.ActBits),
	}, nil
}
