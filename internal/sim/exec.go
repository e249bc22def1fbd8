package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rtmap/internal/ap"
	"rtmap/internal/codegen"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// This file is the batched, pooled functional execution engine: the hot
// path that replays compiled AP programs. The CAM array's whole economy
// is amortizing one program over many rows, and the engine mirrors that
// in software — a batch of N inputs lays its im2col rows end to end in
// one row space, every row packs into a lane of the machine's 64-bit
// words, and every (strip, tile) program — or each of its parts, runs of
// its channel fragments — is interpreted once per cache-sized block of
// those rows, through precompiled ap.ExecPlans, pooled arenas, and a
// persistent worker pool. Only conv/linear layers
// run here, with the act-quant that follows one applied by the tasks that
// finish its row blocks (model.Requant); the layer walk and every other
// layer's integer semantics are model.Network.ExecLayers, shared with the
// software reference (ForwardInt), against which
// TestForwardAPBatchMatchesSerial and TestFusedRequantMatchesForwardInt
// prove the results bit-identical.

// ctxPool recycles the per-call task state and machines the column
// arenas, so the steady-state path allocates nothing once the shapes of
// a workload have been seen — TestRunConvBatchIntoAllocFree gates it.
var ctxPool = sync.Pool{New: func() any { return new(convCtx) }}

// machines is the free list of column arenas: a task takes one for its
// run and returns it, most recently used first, so the process holds as
// many as it has ever run tasks at once, each grown to the largest shape
// it has replayed. Not a sync.Pool: a collection would drop megabytes of
// arena that the next layer allocates again.
var machines struct {
	sync.Mutex
	free []*ap.Machine
}

func getMachine() *ap.Machine {
	machines.Lock()
	defer machines.Unlock()
	if n := len(machines.free); n > 0 {
		m := machines.free[n-1]
		machines.free = machines.free[:n-1]
		return m
	}
	return new(ap.Machine)
}

func putMachine(m *ap.Machine) {
	machines.Lock()
	machines.free = append(machines.free, m)
	machines.Unlock()
}

// convCtx is the shared state of one batched conv execution; tasks index
// into it. Pooled so the steady-state path allocates nothing.
type convCtx struct {
	plan   *core.LayerPlan
	parts  [][]codegen.Part      // [strip·tiles + tile], cut before any task runs
	loads  [][]codegen.PartLoads // the parts' load lists, likewise
	nparts int                   // parts per program
	spec   tensor.ConvSpec
	ins    []*tensor.Int
	outs   []*tensor.Int
	rq     *model.Requant // the following act layer, applied per finished row block; nil: none
	tile   []int          // tile row offsets
	taps   []codegen.Tap  // [kh·Fw + kw], set per call by setTaps
	plane  int            // elements of one input channel

	wg sync.WaitGroup
	// mu orders the accumulation of tasks that split one output region
	// by strip or part, and guards left: per (tile, block), the tasks yet
	// to accumulate there. The one that takes it to zero requantizes.
	mu            sync.Mutex
	left          []int
	block, blocks int // rows per block, blocks per tile
}

// convTask is one (tile, run of parts, row-block) unit of work. Part u
// of a tile is part u mod nparts of strip u / nparts; with one part per
// program a run of parts is a strip group. Rows are numbered across the
// batch — item b's output position p is row b·P + p — so a block may
// start mid-item and span several. A task that runs every part owns its
// output region (tile → output channels, block → output positions)
// outright; tasks that share a region take ctx.mu around their
// accumulation. Either way the reduction of partial sums stays exact:
// int32 adds commute bit for bit regardless of task order.
type convTask struct {
	ctx    *convCtx
	tile   int
	u0, u1 int // parts
	g0, g1 int // rows
}

// The persistent worker pool. submitConv never blocks on a saturated
// pool: the submitter runs the task inline instead, which keeps progress
// even when many batched executions overlap (the serving fleet runs one
// per device goroutine).
var (
	workersOnce sync.Once
	workCh      chan convTask
)

func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	workCh = make(chan convTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range workCh {
				runConvTask(t)
			}
		}()
	}
}

func submitConv(t convTask) {
	select {
	case workCh <- t:
	default:
		runConvTask(t)
	}
}

// runConvTask executes one row block of one tile across its parts: each
// part runs once for the whole block, on the rows of its own channels
// loaded straight from the input tensors by its load list. Every load
// writes every row of its column, so Reset clears only the columns no
// load names. A layer of one output position loads one row per item. Any
// other loads batch item by batch item: a column with a source copies
// the rows the source holds when the item's first row starts a word (per
// rows: the machine's own, as taskShape aligns to the layer's fewest),
// and gathers the rest.
//
//rtmap:noalloc
func runConvTask(t convTask) {
	ctx := t.ctx
	defer ctx.wg.Done()
	m := getMachine()
	defer putMachine(m)
	p, tiles, parts := ctx.plan.P, len(ctx.tile), ctx.nparts
	shared := t.u1-t.u0 < len(ctx.plan.StripPlans)*parts
	last := !shared
	for u := t.u0; u < t.u1; u++ {
		s, k := u/parts, u/parts*tiles+t.tile
		tp := ctx.plan.StripPlans[s].Programs[t.tile]
		part, loads := &ctx.parts[k][u%parts], &ctx.loads[k][u%parts]
		m.Reset(part.Plan, t.g1-t.g0, loads.Cols)
		if p == 1 {
			for i := range loads.Loads {
				ld := &loads.Loads[i]
				for g := t.g0; g < t.g1; g++ {
					m.SetRow(ld.Col, g-t.g0, ctx.ins[g].Data[ld.Base])
				}
			}
		} else {
			per := 64 / part.Plan.LaneBits()
			for g := t.g0; g < t.g1; {
				b, p0 := g/p, g%p
				p1, row0, src := min(p, p0+t.g1-g), g-t.g0, ctx.ins[b].Data
				for i := range loads.Loads {
					ld := &loads.Loads[i]
					if ld.Shift != 0 && row0&(per-1) == 0 {
						// The positions of the tap's grid whose source rows lie in the item too.
						c0 := max(p0, ld.Grid.R0*ld.Grid.W, p0-ld.Shift)
						c1 := min(p1, ld.Grid.R1*ld.Grid.W, p1-ld.Shift)
						if c0 < c1 {
							m.CopyRows(ld.Col, row0+c0-p0, ld.Src, row0+c0-p0+ld.Shift, c1-c0)
							if p0 < c0 {
								m.LoadRows(ld.Col, row0, src[ld.Base:], &ld.Grid, p0, c0)
							}
							if c1 < p1 {
								m.LoadRows(ld.Col, row0+c1-p0, src[ld.Base:], &ld.Grid, c1, p1)
							}
							continue
						}
					}
					m.LoadRows(ld.Col, row0, src[ld.Base:], &ld.Grid, p0, p1)
				}
				g += p1 - p0
			}
		}
		m.Run()
		if shared {
			ctx.mu.Lock()
		}
		for g := t.g0; g < t.g1; {
			b, p0 := g/p, g%p
			n, out := min(p-p0, t.g1-g), ctx.outs[b].Data
			for o, accV := range tp.AccVirt {
				at := (ctx.tile[t.tile]+o)*p + p0
				m.AccumulateColumn(accV, g-t.g0, out[at:at+n])
			}
			g += n
		}
		if shared {
			if u == t.u1-1 {
				k := t.tile*ctx.blocks + t.g0/ctx.block
				ctx.left[k]--
				last = ctx.left[k] == 0
			}
			ctx.mu.Unlock()
		}
	}
	if last && ctx.rq != nil {
		ctx.requant(t)
	}
}

// requant applies the fused act layer to the rows of t's output region,
// whose sums every part has finished.
//
//rtmap:noalloc
func (ctx *convCtx) requant(t convTask) {
	p := ctx.plan.P
	for o := range ctx.plan.TileSizes[t.tile] {
		base := (ctx.tile[t.tile] + o) * p
		for g := t.g0; g < t.g1; {
			b, p0 := g/p, g%p
			n := min(p-p0, t.g1-g)
			scale, lo, hi := ctx.rq.Item(b)
			ap.Requantize(ctx.rq.Outs[b].Data[base+p0:base+p0+n], ctx.outs[b].Data[base+p0:base+p0+n], scale, lo, hi)
			g += n
		}
	}
}

// setTaps computes one call's taps, one per patch position (kh, kw):
// the output positions whose patch position lands inside the input, and
// where. A stride-1 layer whose output plane is its input's derives:
// kernel row kh's taps are kernel row pad's, (kh − pad) output rows on.
func (ctx *convCtx) setTaps(in, out tensor.Shape) {
	s, pad, h, w := ctx.spec.Stride, ctx.spec.Pad, in.H, in.W
	derive := s == 1 && out.H == h && out.W == w
	ctx.plane, ctx.taps = h*w, ctx.taps[:0]
	// first and end bound the outputs o whose tap o·s + off lies in [0, n).
	first := func(off int) int { return (max(0, -off) + s - 1) / s }
	end := func(off, n, nOut int) int { return min(nOut, max(0, (n-1-off+s)/s)) }
	for kh := 0; kh < ctx.spec.Fh; kh++ {
		oh0, oh1 := first(kh-pad), end(kh-pad, h, out.H)
		for kw := 0; kw < ctx.spec.Fw; kw++ {
			lo, hi := first(kw-pad), end(kw-pad, w, out.W)
			t := codegen.Tap{From: -1}
			if lo < hi && oh0 < oh1 { // else a padding tap
				t.Grid = ap.Grid{W: out.W, R0: oh0, R1: oh1, Lo: lo, Hi: hi, Pitch: s * w, Stride: s}
				t.Base = (oh0*s+kh-pad)*w + lo*s + kw - pad
			}
			if derive && kh != pad {
				t.From, t.Shift = pad*ctx.spec.Fw+kw, (kh-pad)*out.W
			}
			ctx.taps = append(ctx.taps, t)
		}
	}
}

// Task shape. Rows are independent in the ISA's semantics, so the
// camRows hardware granularity is not a semantic boundary: a task runs
// as many rows per program pass as keep its machine arena in L2, which
// amortizes op dispatch over the block without streaming every column
// from memory on every op that touches it.
const (
	// arenaBudget caps a task's machine arena (slots × words × 8 bytes).
	arenaBudget = 2 << 20
	// lineWords floors a block at one cache line of lanes per column:
	// below it a task moves whole lines to use part of each.
	lineWords = 8
	// partWords is the shortest block a row cut may leave where the
	// programs can be cut into parts instead: below four cache lines per
	// column, re-running every op per block costs more than each part
	// accumulating the tile's sums over all the rows.
	partWords = 4 * lineWords
	// handoffWork is the ops × rows a task must keep for a split to pay
	// for handing the other half to a worker.
	handoffWork = 1 << 15
)

// taskShape sizes the tasks of one layer execution: the row-block
// length, the parts a task runs and the parts each program is cut into.
// rows counts every batch item's rows; chans is the fewest channel
// fragments, slots the widest slot table and ops the largest per-tile op
// count (all strips) among the layer's programs, lanes the fewest rows
// per word.
//
// Blocks start as long as arenaBudget allows. While that leaves a worker
// with fewer than two tasks, strips split into groups first — a strip
// group runs its own ops once, so the split adds no dispatch. Then, if
// the row cut that would feed the workers leaves blocks under partWords,
// each strip's program is cut into parts at channel boundaries, which
// also run their ops once; otherwise blocks shorten, which re-runs every
// op per block: never below lineWords. No split goes below handoffWork
// per task, and no part has less than one channel.
func taskShape(rows, tiles, strips, chans, slots, ops, lanes, workers int) (block, perTask, parts int) {
	want := 1 // blocks × tasks per tile that feed the pool
	if workers > 1 {
		want = (2*workers + tiles - 1) / tiles
	}
	line := lanes * lineWords
	// blocks counts the blocks of a given length, folding a last block
	// shorter than a cache line into the others.
	blocks := func(block int) int {
		n := (rows + block - 1) / block
		if rows/n < line {
			n = max(1, rows/line)
		}
		return n
	}
	block = min(rows, lanes*max(lineWords, arenaBudget/8/slots))
	n := blocks(block)
	split := max(1, ops*block/handoffWork) // the tasks a block's work pays for
	groups, parts := min(strips, (want+n-1)/n, split), 1
	if n*groups < want {
		floor := max(line, (handoffWork*groups+ops-1)/ops)
		feed := (want + groups - 1) / groups
		cut := min(block, max((rows+feed-1)/feed, floor))
		if p := min(chans, (want+n*strips-1)/(n*strips), split/strips); cut < lanes*partWords && p > 1 {
			parts = p
		} else {
			block = cut
			n = blocks(block)
		}
	}
	// Even the blocks out, whole words each.
	block = ((rows+n-1)/n + lanes - 1) / lanes * lanes
	return block, (strips + groups - 1) / groups, parts
}

// Shape is how the engine cuts one conv/linear layer's execution.
type Shape struct {
	Block, Blocks int // rows per block, blocks per tile
	// PerTask is the parts a task runs, in strip order; with one part
	// per program (Parts 1) they are whole strips.
	PerTask, Parts int
	// Dispatches counts the ops one call runs: every op of every part
	// once per block — the accumulator clears once per part.
	Dispatches int
}

// LayerShape returns the shape the engine gives layer layerIdx of c at a
// batch of n inputs with workers workers to feed.
func LayerShape(c *core.Compiled, layerIdx, n, workers int) (Shape, error) {
	ctx := &convCtx{plan: c.Layers[layerIdx]}
	return ctx.shape(layerIdx, n*ctx.plan.P, workers)
}

// RunConvBatchInto executes one compiled conv/linear layer for a batch
// of inputs, accumulating the pre-requantization OFMs into caller-owned
// output tensors (zeroed here; shapes must match the layer output).
// Scratch comes from pools and programs run as precompiled ExecPlans, so
// the steady-state call allocates nothing. Requires Config.KeepPrograms.
func RunConvBatchInto(c *core.Compiled, layerIdx int, ins, outs []*tensor.Int) error {
	return runConvBatch(c, layerIdx, ins, outs, false, nil)
}

// runConvBatch is RunConvBatchInto, or with alloc its allocating form:
// outs arrive as empty slots and leave as fresh, already zero tensors.
// A non-nil rq is applied to each row block as its sums finish.
func runConvBatch(c *core.Compiled, layerIdx int, ins, outs []*tensor.Int, alloc bool, rq *model.Requant) error {
	plan := c.Layers[layerIdx]
	if plan.Class != core.ClassConv {
		return fmt.Errorf("sim: layer %d (%s) is not conv-like", layerIdx, plan.Name)
	}
	if len(plan.StripPlans) == 0 {
		return fmt.Errorf("sim: layer %d compiled without KeepPrograms", layerIdx)
	}
	if len(ins) == 0 || len(ins) != len(outs) {
		return fmt.Errorf("sim: batch of %d inputs with %d outputs", len(ins), len(outs))
	}
	spec := c.Net.Layers[layerIdx].ConvSpec()
	outShape := spec.OutShape(ins[0].Shape)
	for b, in := range ins {
		if in.Shape.N != 1 {
			return fmt.Errorf("sim: functional simulation runs batch-of-1 tensors, got N=%d", in.Shape.N)
		}
		if s := in.Shape; s.C != plan.InC || s.H != plan.InH || s.W != plan.InW {
			return fmt.Errorf("sim: batch item %d shape %v, layer %d (%s) compiled for %dx%dx%d", b, s, layerIdx, plan.Name, plan.InC, plan.InH, plan.InW)
		}
		if alloc {
			outs[b] = tensor.NewInt(outShape)
			continue
		}
		if outs[b].Shape != outShape {
			return fmt.Errorf("sim: batch output %d shape %v, want %v", b, outs[b].Shape, outShape)
		}
		clear(outs[b].Data)
	}
	ctx := ctxPool.Get().(*convCtx)
	ctx.plan, ctx.spec, ctx.ins, ctx.outs, ctx.rq = plan, spec, ins, outs, rq
	ctx.setTaps(ins[0].Shape, outShape)
	err := ctx.run(layerIdx)
	ctx.plan, ctx.ins, ctx.outs, ctx.rq = nil, nil, nil, nil
	clear(ctx.parts)
	clear(ctx.loads)
	ctxPool.Put(ctx)
	return err
}

// shape lowers every program of the layer (memoized on the tile
// program, so tasks have no error path), sizes the tasks of rows rows
// from the layer's extremes, and cuts the programs as the shape says.
func (ctx *convCtx) shape(layerIdx, rows, workers int) (Shape, error) {
	plan := ctx.plan
	tiles, strips := len(plan.TileSizes), len(plan.StripPlans)
	slots, lanes, chans := 1, 64, math.MaxInt
	for _, sp := range plan.StripPlans {
		if len(sp.Programs) != tiles {
			return Shape{}, fmt.Errorf("sim: layer %d: strip has %d programs, want %d", layerIdx, len(sp.Programs), tiles)
		}
		for _, tp := range sp.Programs {
			ep, err := tp.ExecPlan()
			if err != nil {
				return Shape{}, err
			}
			slots = max(slots, ep.Slots())
			lanes = min(lanes, 64/ep.LaneBits())
			chans = min(chans, max(1, len(tp.ChanAt)))
		}
	}
	ops := 1
	for t := 0; t < tiles; t++ {
		n := 0
		for _, sp := range plan.StripPlans {
			ep, _ := sp.Programs[t].ExecPlan() // lowered above
			n += ep.Ops()
		}
		ops = max(ops, n)
	}
	var sh Shape
	sh.Block, sh.PerTask, sh.Parts = taskShape(rows, tiles, strips, chans, slots, ops, lanes, workers)
	sh.Blocks = (rows + sh.Block - 1) / sh.Block
	return sh, ctx.cut(&sh)
}

// cut fills ctx.parts with every program cut into sh.Parts parts, or as
// many as the program with the fewest channels has, and counts
// sh.Dispatches.
func (ctx *convCtx) cut(sh *Shape) error {
	for _, sp := range ctx.plan.StripPlans {
		for _, tp := range sp.Programs {
			sh.Parts = min(sh.Parts, max(1, len(tp.ChanAt)))
		}
	}
	ctx.parts, ctx.nparts, sh.Dispatches = ctx.parts[:0], sh.Parts, 0
	for _, sp := range ctx.plan.StripPlans {
		for _, tp := range sp.Programs {
			ps, err := tp.Parts(sh.Parts)
			if err != nil {
				return err
			}
			ctx.parts = append(ctx.parts, ps)
			for _, pt := range ps {
				sh.Dispatches += sh.Blocks * pt.Plan.Ops()
			}
		}
	}
	return nil
}

// run shapes the layer's tasks and executes them.
func (ctx *convCtx) run(layerIdx int) error {
	sh, err := ctx.shape(layerIdx, len(ctx.ins)*ctx.plan.P, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	ctx.exec(sh)
	return nil
}

// list fills ctx.loads with the load lists of every program cut into
// parts parts, over the call's taps.
func (ctx *convCtx) list(parts int) {
	ctx.loads = ctx.loads[:0]
	for _, sp := range ctx.plan.StripPlans {
		for _, tp := range sp.Programs {
			ls, _ := tp.Loads(parts, ctx.taps, sp.Channels, ctx.plane) // lowered by shape
			ctx.loads = append(ctx.loads, ls)
		}
	}
}

// exec runs the tasks of a shape that ctx.cut has cut the programs for.
func (ctx *convCtx) exec(sh Shape) {
	plan := ctx.plan
	ctx.list(sh.Parts)
	rows := len(ctx.ins) * plan.P
	ctx.tile = ctx.tile[:0]
	off := 0
	for _, ts := range plan.TileSizes {
		ctx.tile = append(ctx.tile, off)
		off += ts
	}
	units := len(plan.StripPlans) * sh.Parts
	ctx.block, ctx.blocks = sh.Block, sh.Blocks
	ctx.left = ctx.left[:0]
	for range len(plan.TileSizes) * ctx.blocks {
		ctx.left = append(ctx.left, (units+sh.PerTask-1)/sh.PerTask)
	}
	workersOnce.Do(startWorkers)
	// The caller keeps the last task for itself: it would otherwise only
	// wait, and a layer that is one task never pays a hand-off.
	var last convTask
	for t := range plan.TileSizes {
		for u0 := 0; u0 < units; u0 += sh.PerTask {
			for g0 := 0; g0 < rows; g0 += sh.Block {
				if last.ctx != nil {
					submitConv(last)
				}
				ctx.wg.Add(1)
				last = convTask{ctx: ctx, tile: t, u0: u0, u1: min(u0+sh.PerTask, units), g0: g0, g1: min(g0+sh.Block, rows)}
			}
		}
	}
	runConvTask(last)
	ctx.wg.Wait()
}

// RunConvBatch is RunConvBatchInto with freshly allocated outputs: one
// accumulated OFM per batch item, bit-identical to calling RunConv per
// item.
func RunConvBatch(c *core.Compiled, layerIdx int, ins []*tensor.Int) ([]*tensor.Int, error) {
	outs := make([]*tensor.Int, len(ins))
	if err := runConvBatch(c, layerIdx, ins, outs, true, nil); err != nil {
		return nil, err
	}
	return outs, nil
}

// LayerHook observes one layer's execution on the functional engine
// (see model.LayerHook).
type LayerHook = model.LayerHook

// ForwardAPBatch runs the full network functionally for a batch of
// inputs, every conv/linear layer executed once per (strip, tile,
// row-group) across the whole batch. Each returned trace is bit-identical
// to ForwardAP on the corresponding input.
func ForwardAPBatch(c *core.Compiled, ins []*tensor.Float) ([]*model.IntTrace, error) {
	return ForwardAPBatchHook(c, ins, nil)
}

// ForwardAPBatchHook is ForwardAPBatch with a per-layer observation
// hook (nil behaves exactly like ForwardAPBatch).
func ForwardAPBatchHook(c *core.Compiled, ins []*tensor.Float, hook LayerHook) ([]*model.IntTrace, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	trs := make([]*model.IntTrace, len(ins))
	for i, in := range ins {
		tr, err := c.Net.NewTrace(in)
		if err != nil {
			return nil, err
		}
		trs[i] = tr
	}
	if err := c.Net.ExecLayers(trs, 0, len(c.Net.Layers), convExec(c), hook); err != nil {
		return nil, err
	}
	return trs, nil
}

// convExec is the conv/linear executor every functional run plugs into
// the model's layer walker: the batched AP engine, one program
// interpretation per (strip, tile, row-block) for the whole batch, with
// the following act layer fused into the tasks that finish each block.
func convExec(c *core.Compiled) model.ConvExec {
	return func(i int, _ *model.Layer, xs, outs []*tensor.Int, rq *model.Requant) (bool, error) {
		if err := runConvBatch(c, i, xs, outs, true, rq); err != nil {
			return false, err
		}
		return rq != nil, nil
	}
}
