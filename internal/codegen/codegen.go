package codegen

import (
	"fmt"
	"sort"
	"sync"

	"rtmap/internal/ap"
	"rtmap/internal/dfg"
	"rtmap/internal/sched"
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

// Stats aggregates emission statistics; all Σ-weighted by bit width so the
// analytic cost model can price passes without retaining programs.
type Stats struct {
	DFGOps        int // add/sub instructions of the channel-wise DFG phase
	DFGInPlace    int
	DFGBitsIn     int // Σ widths of in-place DFG ops
	DFGBitsOut    int // Σ widths of out-of-place DFG ops
	AccumOps      int // accumulate instructions (accumulation phase)
	AccumBits     int
	Clears        int
	ClearBits     int
	ShiftSteps    int // estimated DBC steps (sequential bit access + channel advance)
	TempHighWater int
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.DFGOps += o.DFGOps
	s.DFGInPlace += o.DFGInPlace
	s.DFGBitsIn += o.DFGBitsIn
	s.DFGBitsOut += o.DFGBitsOut
	s.AccumOps += o.AccumOps
	s.AccumBits += o.AccumBits
	s.Clears += o.Clears
	s.ClearBits += o.ClearBits
	s.ShiftSteps += o.ShiftSteps
	if o.TempHighWater > s.TempHighWater {
		s.TempHighWater = o.TempHighWater
	}
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
	Stats         Stats

	planOnce sync.Once
	plan     *ap.ExecPlan
	planErr  error

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

// TileBuilder incrementally emits the program of one tile: accumulator
// clears first, then one channel fragment per resident channel.
type TileBuilder struct {
	lay  Layout
	prog *ap.Program
	phys []int
	pool *sched.ColumnPool

	accVirt  []int
	inBind   map[int][2]int
	inVirt   map[[2]int]int // inBind reversed: (channel, patch position) -> virtual column
	stats    Stats
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
		pool:   sched.NewColumnPool(lay.TempCols),
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
		b.stats.Clears++
		b.stats.ClearBits += lay.AccWidth
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
// resident index within the strip (selects plane and domain slot).
func (b *TileBuilder) AddChannel(ch int, g *dfg.Graph) error {
	if b.finished {
		return fmt.Errorf("codegen: builder already finished")
	}
	if ch < 0 || ch >= b.lay.ChannelCapacity() {
		return fmt.Errorf("codegen: channel index %d beyond capacity %d", ch, b.lay.ChannelCapacity())
	}
	if len(g.Outputs) != b.lay.TileSize {
		return fmt.Errorf("codegen: graph has %d outputs, tile has %d accumulators",
			len(g.Outputs), b.lay.TileSize)
	}
	if err := g.Validate(); err != nil {
		return err
	}

	last := sched.Liveness(g)
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
	groupPhys := map[int]int{}
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
			b.pool.Put(groupPhys[gid])
			delete(groupVirt, gid)
			delete(groupPhys, gid)
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
			b.stats.AccumOps++
			b.stats.AccumBits += b.lay.AccWidth
			b.stats.ShiftSteps += 2 * b.lay.AccWidth
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
			b.stats.DFGInPlace++
			b.stats.DFGBitsIn += w
			consume(nd.B)
			refcount[nd.A]-- // chain value consumed structurally
		} else {
			phys, err := b.pool.Get()
			if err != nil {
				return fmt.Errorf("codegen: channel %d node %d: %w", ch, i, err)
			}
			v := b.newVirt(ap.Col{Name: fmt.Sprintf("t%d.%d", ch, i), Base: 0, Width: w}, phys)
			groupVirt[gid] = v
			groupPhys[gid] = phys
			bV := loc(nd.A)
			aV := loc(nd.B)
			b.prog.Instrs = append(b.prog.Instrs, ap.Instr{
				Op: opc, Dst: v, A: aV, B: bV, Width: w,
			})
			b.stats.DFGBitsOut += w
			consume(nd.A)
			consume(nd.B)
		}
		b.stats.DFGOps++
		b.stats.ShiftSteps += 3 * w // sequential bit advance of ~3 involved columns
		emitAccum(i)
	}

	// Accumulates of alias rows: outputs that reference an input column
	// directly (single-term rows of the slice).
	for id := range g.Nodes {
		if g.Nodes[id].Kind == dfg.OpInput {
			emitAccum(id)
		}
	}

	// Advancing to the next channel slot shifts every input plane column
	// by ActBits domains.
	b.stats.ShiftSteps += b.lay.K * b.lay.ActBits
	if hw := b.pool.HighWater(); hw > b.stats.TempHighWater {
		b.stats.TempHighWater = hw
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
		Stats:         b.stats,
	}, nil
}
