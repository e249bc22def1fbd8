package sim

import (
	"fmt"
	"runtime"
	"sync"

	"rtmap/internal/ap"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// This file is the batched, pooled functional execution engine: the hot
// path that replays compiled AP programs. The CAM array's whole economy
// is amortizing one program over many rows, and the engine mirrors that
// in software — a batch of N inputs lays its im2col rows end to end in
// one row space, every row packs into a lane of the machine's 64-bit
// words, and every (strip, tile) program is interpreted once per
// cache-sized block of those rows, through precompiled ap.ExecPlans,
// pooled arenas, and a persistent worker pool. Only conv/linear layers
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
	plans  []*ap.ExecPlan // [strip·tiles + tile], lowered before any task runs
	spec   tensor.ConvSpec
	ins    []*tensor.Int
	outs   []*tensor.Int
	rq     *model.Requant // the following act layer, applied per finished row block; nil: none
	tile   []int          // tile row offsets
	taps   []tap          // [kh·Fw + kw], set per call by setTaps
	plane  int            // elements of one input channel
	derive bool           // stride 1, output plane = input's: a kernel column's taps lie whole rows apart

	wg sync.WaitGroup
	// mu orders the accumulation of tasks that split one output region
	// by strip, and guards left: per (tile, block), the strip groups yet
	// to accumulate there. The one that takes it to zero requantizes.
	mu            sync.Mutex
	left          []int
	block, blocks int // rows per block, blocks per tile
}

// convTask is one (strip-group, tile, row-block) unit of work. Rows are
// numbered across the batch — item b's output position p is row b·P + p —
// so a block may start mid-item and span several. A task that runs every
// strip owns its output region (tile → output channels, block → output
// positions) outright; tasks that share a region between strip groups
// take ctx.mu around their accumulation. Either way the inter-strip
// reduction stays exact: int32 adds commute bit for bit regardless of
// task order.
type convTask struct {
	ctx    *convCtx
	tile   int
	s0, s1 int // strips
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

// runConvTask executes one row block of one tile across its strips:
// each strip's program runs once for the whole block, on rows gathered
// straight from the input tensors.
//
//rtmap:noalloc
func runConvTask(t convTask) {
	ctx := t.ctx
	defer ctx.wg.Done()
	m := getMachine()
	defer putMachine(m)
	p, tiles := ctx.plan.P, len(ctx.tile)
	shared := t.s1-t.s0 < len(ctx.plan.StripPlans)
	last := !shared
	for s := t.s0; s < t.s1; s++ {
		sp := &ctx.plan.StripPlans[s]
		tp := sp.Programs[t.tile]
		ep := ctx.plans[s*tiles+t.tile]
		m.Reset(ep, t.g1-t.g0)
		ins, srcs := tp.Inputs(), tp.TapSources(ctx.spec.Fw, ctx.spec.Pad)
		// Taps with a source last: in a derivable layer they copy from it.
		for pass := 0; pass < 2; pass++ {
			for i, in := range ins {
				if in.Chan < len(sp.Channels) && (pass == 1) == (ctx.derive && srcs[i] >= 0) {
					ctx.load(m, t, in.Virt, srcs[i], sp.Channels[in.Chan], in.K, 64/ep.LaneBits())
				}
			}
		}
		m.Run()
		if shared {
			ctx.mu.Lock()
		}
		for o, accV := range tp.AccVirt {
			base := (ctx.tile[t.tile] + o) * p
			for g := t.g0; g < t.g1; {
				b, p0 := g/p, g%p
				n := min(p-p0, t.g1-g)
				m.AccumulateColumn(accV, g-t.g0, ctx.outs[b].Data[base+p0:base+p0+n])
				g += n
			}
		}
		if shared {
			if s == t.s1-1 {
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
// whose sums every strip has finished.
//
//rtmap:noalloc
func (ctx *convCtx) requant(t convTask) {
	p := ctx.plan.P
	for o := range ctx.plan.TileSizes[t.tile] {
		base := (ctx.tile[t.tile] + o) * p
		for g := t.g0; g < t.g1; {
			b, p0 := g/p, g%p
			n := min(p-p0, t.g1-g)
			ctx.rq.Apply(b, ctx.outs[b].Data, base+p0, base+p0+n)
			g += n
		}
	}
}

// tap is one patch position (kh, kw) over the output plane: [Q0, Q1) the
// rows whose tap lands in the input, base the plane offset (Q0's row, Lo)
// reads, and shift where its kernel-row-pad source holds position p's.
type tap struct {
	ap.Grid
	base, shift int
}

// setTaps computes one call's taps; one never inside the input is empty.
func (ctx *convCtx) setTaps(in, out tensor.Shape) {
	s, pad, h, w := ctx.spec.Stride, ctx.spec.Pad, in.H, in.W
	ctx.plane, ctx.derive, ctx.taps = h*w, s == 1 && out.H == h && out.W == w, ctx.taps[:0]
	// first and end bound the outputs o whose tap o·s + off lies in [0, n).
	first := func(off int) int { return (max(0, -off) + s - 1) / s }
	end := func(off, n, nOut int) int { return min(nOut, max(0, (n-1-off+s)/s)) }
	for kh := 0; kh < ctx.spec.Fh; kh++ {
		oh0, oh1 := first(kh-pad), end(kh-pad, h, out.H)
		for kw := 0; kw < ctx.spec.Fw; kw++ {
			lo, hi := first(kw-pad), end(kw-pad, w, out.W)
			t := tap{ap.Grid{Q0: oh0 * out.W, Q1: oh1 * out.W, W: out.W, Lo: lo, Hi: hi, Pitch: s * w, Stride: s},
				(oh0*s+kh-pad)*w + lo*s + kw - pad, (kh - pad) * out.W}
			if lo >= hi || oh0 >= oh1 {
				t.Q0, t.Q1 = 0, 0
			}
			ctx.taps = append(ctx.taps, t)
		}
	}
}

// load fills column col (channel ci, tap k) per batch-item segment. In a
// derivable layer, a segment whose first row and shift start a word (per
// rows: the machine's own, as taskShape aligns to the layer's fewest)
// copies what source column src holds shift rows away, gathering the rest.
//
//rtmap:noalloc
func (ctx *convCtx) load(m *ap.Machine, t convTask, col, src, ci, k, per int) {
	p, tp := ctx.plan.P, &ctx.taps[k]
	for g := t.g0; g < t.g1; {
		b, p0 := g/p, g%p
		p1, row0, plane := min(p, p0+t.g1-g), g-t.g0, ctx.ins[b].Data[ci*ctx.plane:]
		c0, c1 := max(p0, tp.Q0, p0-tp.shift), min(p1, tp.Q1, p1-tp.shift)
		if !ctx.derive || src < 0 || (row0|tp.shift)&(per-1) != 0 || c0 >= c1 {
			ctx.gather(m, col, row0, plane, k, p0, p1)
		} else {
			m.CopyRows(col, row0+c0-p0, src, row0+c0-p0+tp.shift, c1-c0)
			ctx.gather(m, col, row0, plane, k, p0, c0)
			ctx.gather(m, col, row0+c1-p0, plane, k, c1, p1)
		}
		g += p1 - p0
	}
}

// gather loads positions [p0, p1) of tap k from an input plane, p0 at row
// row0, in one grid load. Padding taps stay as Reset zeroed them.
//
//rtmap:noalloc
func (ctx *convCtx) gather(m *ap.Machine, col, row0 int, plane []int32, k, p0, p1 int) {
	t := &ctx.taps[k]
	a, b := max(p0, t.Q0), min(p1, t.Q1)
	if a >= b {
		return
	}
	g := t.Grid
	g.Q0, g.Q1 = a-t.Q0, b-t.Q0
	m.LoadRows(col, row0+a-p0, plane[t.base:], g)
}

// Task shape. Rows are independent in the ISA's semantics, so the
// camRows hardware granularity is not a semantic boundary: a task runs
// as many rows per program pass as keep its machine arena in L2, which
// amortizes op dispatch over the block without streaming every column
// from memory on every op that touches it.
const (
	// arenaBudget caps a task's machine arena (columns × words × 8 bytes).
	arenaBudget = 2 << 20
	// lineWords floors a block at one cache line of lanes per column:
	// below it a task moves whole lines to use part of each.
	lineWords = 8
	// handoffWork is the ops × rows a task must keep for a split to pay
	// for handing the other half to a worker.
	handoffWork = 1 << 15
)

// taskShape sizes the tasks of one layer execution: the row-block length
// and the strips per task. rows counts every batch item's rows; cols and
// ops are the widest column table and the largest per-tile op count (all
// strips) among the layer's plans, lanes the fewest rows per word.
//
// Blocks start as long as arenaBudget allows. While that leaves a worker
// with fewer than two tasks, strips split into groups first — a strip
// group runs its own ops once, so the split adds no dispatch — and then
// blocks shorten, which re-runs every op per block: never below
// lineWords, and neither split below handoffWork per task.
func taskShape(rows, tiles, strips, cols, ops, lanes, workers int) (block, perTask int) {
	want := 1 // blocks × strip groups per tile that feed the pool
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
	block = min(rows, lanes*max(lineWords, arenaBudget/8/cols))
	n := blocks(block)
	groups := min(strips, (want+n-1)/n, max(1, ops*block/handoffWork))
	if n*groups < want {
		floor := max(line, (handoffWork*groups+ops-1)/ops)
		feed := (want + groups - 1) / groups
		block = min(block, max((rows+feed-1)/feed, floor))
		n = blocks(block)
	}
	// Even the blocks out, whole words each.
	block = ((rows+n-1)/n + lanes - 1) / lanes * lanes
	return block, (strips + groups - 1) / groups
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
		if in.Shape != ins[0].Shape {
			return fmt.Errorf("sim: batch item %d shape %v != %v", b, in.Shape, ins[0].Shape)
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
	clear(ctx.plans)
	ctxPool.Put(ctx)
	return err
}

// shape lowers every program of the layer (memoized on the tile
// program, so tasks have no error path) and sizes the tasks from the
// layer's extremes.
func (ctx *convCtx) shape(layerIdx int) (block, perTask int, err error) {
	plan := ctx.plan
	tiles, strips := len(plan.TileSizes), len(plan.StripPlans)
	ctx.plans = ctx.plans[:0]
	cols, lanes := 1, 64
	for _, sp := range plan.StripPlans {
		if len(sp.Programs) != tiles {
			return 0, 0, fmt.Errorf("sim: layer %d: strip has %d programs, want %d", layerIdx, len(sp.Programs), tiles)
		}
		for _, tp := range sp.Programs {
			ep, err := tp.ExecPlan()
			if err != nil {
				return 0, 0, err
			}
			ctx.plans = append(ctx.plans, ep)
			cols = max(cols, ep.Columns())
			lanes = min(lanes, 64/ep.LaneBits())
		}
	}
	ops := 1
	for t := 0; t < tiles; t++ {
		n := 0
		for s := 0; s < strips; s++ {
			n += ctx.plans[s*tiles+t].Ops()
		}
		ops = max(ops, n)
	}
	block, perTask = taskShape(len(ctx.ins)*plan.P, tiles, strips, cols, ops, lanes, runtime.GOMAXPROCS(0))
	return block, perTask, nil
}

// run shapes the layer's tasks and executes them.
func (ctx *convCtx) run(layerIdx int) error {
	block, perTask, err := ctx.shape(layerIdx)
	if err != nil {
		return err
	}
	plan := ctx.plan
	ctx.tile = ctx.tile[:0]
	off := 0
	for _, ts := range plan.TileSizes {
		ctx.tile = append(ctx.tile, off)
		off += ts
	}
	rows, strips := len(ctx.ins)*plan.P, len(plan.StripPlans)
	ctx.block, ctx.blocks = block, (rows+block-1)/block
	ctx.left = ctx.left[:0]
	for range len(plan.TileSizes) * ctx.blocks {
		ctx.left = append(ctx.left, (strips+perTask-1)/perTask)
	}
	workersOnce.Do(startWorkers)
	// The caller keeps the last task for itself: it would otherwise only
	// wait, and a layer that is one task never pays a hand-off.
	var last convTask
	for t := range plan.TileSizes {
		for s0 := 0; s0 < strips; s0 += perTask {
			for g0 := 0; g0 < rows; g0 += block {
				if last.ctx != nil {
					submitConv(last)
				}
				ctx.wg.Add(1)
				last = convTask{ctx: ctx, tile: t, s0: s0, s1: min(s0+perTask, strips), g0: g0, g1: min(g0+block, rows)}
			}
		}
	}
	runConvTask(last)
	ctx.wg.Wait()
	return nil
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
