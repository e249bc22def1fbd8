package codegen

import (
	"fmt"
	"math"
	"sort"
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

	partsMu sync.Mutex
	parts   map[int][]Part

	inputsOnce sync.Once
	inputs     []InputBinding

	sourcesOnce sync.Once
	sources     []int
}

// InputBinding is one entry of TileProgram.InputBindings: virtual input
// column Virt carries patch position K of resident channel Chan.
type InputBinding struct {
	Virt, Chan, K int
}

// Inputs returns InputBindings in virtual-column order, built on first
// use and memoized like ExecPlan. Replay walks it once per task: a slice
// in arena order instead of a map in random order.
func (tp *TileProgram) Inputs() []InputBinding {
	tp.inputsOnce.Do(func() {
		tp.inputs = make([]InputBinding, 0, len(tp.InputBindings))
		for v, bind := range tp.InputBindings {
			tp.inputs = append(tp.inputs, InputBinding{Virt: v, Chan: bind[0], K: bind[1]})
		}
		sort.Slice(tp.inputs, func(i, j int) bool { return tp.inputs[i].Virt < tp.inputs[j].Virt })
	})
	return tp.inputs
}

// TapSources returns, per entry of Inputs, the column bound to its channel
// and kernel column in kernel row pad, or -1 if that is itself or unbound.
// Memoized like Inputs: fw and pad are the layer's, fixed per program.
func (tp *TileProgram) TapSources(fw, pad int) []int {
	tp.sourcesOnce.Do(func() {
		virt := make(map[[2]int]int, len(tp.InputBindings))
		for v, bind := range tp.InputBindings {
			virt[bind] = v
		}
		for _, in := range tp.Inputs() {
			src, ok := virt[[2]int{in.Chan, pad*fw + in.K%fw}]
			if !ok || src == in.Virt {
				src = -1
			}
			tp.sources = append(tp.sources, src)
		}
	})
	return tp.sources
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
	n := len(tp.ChanAt)
	g = max(1, min(g, n))
	tp.partsMu.Lock()
	defer tp.partsMu.Unlock()
	if ps, ok := tp.parts[g]; ok {
		return ps, nil
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
	return ps, nil
}

// TileBuilder incrementally emits the program of one tile: accumulator
// clears first, then one channel fragment per resident channel.
type TileBuilder struct {
	lay  Layout
	prog *ap.Program
	phys []int
	pool *columnPool

	accVirt  []int
	chanAt   []int
	inBind   map[int][2]int
	inVirt   map[[2]int]int // inBind reversed: (channel, patch position) -> virtual column
	finished bool
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
		inVirt: make(map[[2]int]int),
	}
	// Virtual column 0: carry.
	b.prog.Carry = b.newVirt(ap.Col{Name: "carry", Base: lay.CarryBase, Width: 1}, lay.CarryCol)
	for i := 0; i < lay.TileSize; i++ {
		v := b.newVirt(ap.Col{
			Name:  fmt.Sprintf("acc%d", i),
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

// inputVirt returns (creating lazily) the virtual column of patch position
// k for resident channel ch.
func (b *TileBuilder) inputVirt(ch, k int) int {
	key := [2]int{ch, k}
	if v, ok := b.inVirt[key]; ok {
		return v
	}
	plane := ch / b.lay.ChansPerPlane
	slot := ch % b.lay.ChansPerPlane
	v := b.newVirt(ap.Col{
		Name:     fmt.Sprintf("x[ch%d][%d]", ch, k),
		Base:     b.lay.InputBase + slot*b.lay.ActBits,
		Width:    b.lay.ActBits,
		Unsigned: b.lay.ActUnsigned,
	}, b.lay.InputCols[plane][k])
	b.inBind[v] = key
	b.inVirt[key] = v
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

	last := liveness(g)
	uses := g.UseCounts()

	// Chain grouping: node n joins its left operand's group when that
	// operand is a single-use op node — those ops run in place on one
	// shared column at the chain's maximum width.
	group := make([]int, len(g.Nodes))
	groupWidth := map[int]int{}
	groupFinal := map[int]int{}
	nGroups := 0
	isOp := func(i int) bool {
		k := g.Nodes[i].Kind
		return k == dfg.OpAdd || k == dfg.OpSub
	}
	for i := range g.Nodes {
		group[i] = -1
	}
	for i, nd := range g.Nodes {
		if !isOp(i) || last[i] < 0 {
			continue
		}
		if isOp(nd.A) && uses[nd.A] == 1 && group[nd.A] >= 0 {
			group[i] = group[nd.A]
		} else {
			group[i] = nGroups
			nGroups++
		}
		if g.Nodes[i].Bits > groupWidth[group[i]] {
			groupWidth[group[i]] = g.Nodes[i].Bits
		}
		groupFinal[group[i]] = i
	}

	groupVirt := map[int]int{}
	refcount := make([]int, len(g.Nodes))
	copy(refcount, uses)

	inputIdx := make(map[int]int) // node id → patch position
	for k, id := range g.Inputs {
		inputIdx[id] = k
	}

	// loc returns the virtual column holding node id's value.
	loc := func(id int) int {
		if g.Nodes[id].Kind == dfg.OpInput {
			return b.inputVirt(ch, inputIdx[id])
		}
		v, ok := groupVirt[group[id]]
		if !ok {
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
			delete(groupVirt, gid)
		}
	}

	// Outputs indexed by defining node, so each row's accumulate step is
	// emitted as soon as its value exists — releasing the row chain's
	// column before the next row starts (otherwise every row of the tile
	// would hold a live temp column until the end of the fragment).
	outsByNode := make(map[int][]int)
	for o, ref := range g.Outputs {
		if !ref.Zero {
			outsByNode[ref.Node] = append(outsByNode[ref.Node], o)
		}
	}
	emitAccum := func(nodeID int) {
		for _, o := range outsByNode[nodeID] {
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
		if !isOp(i) || last[i] < 0 {
			continue
		}
		gid := group[i]
		w := groupWidth[gid]
		opc := ap.OpAdd
		if nd.Kind == dfg.OpSub {
			opc = ap.OpSub
		}
		if v, inPlace := groupVirt[gid]; inPlace {
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
			v := b.newVirt(ap.Col{Name: fmt.Sprintf("t%d.%d", ch, i), Base: 0, Width: w, Temp: true}, phys)
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
