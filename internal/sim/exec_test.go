package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// assertTraceEqual fails on the first layer whose output codes differ.
func assertTraceEqual(t *testing.T, net *model.Network, got, want *model.IntTrace, label string) {
	t.Helper()
	for i := range net.Layers {
		if !got.Outputs[i].Equal(want.Outputs[i]) {
			t.Fatalf("%s: layer %d (%s) diverges", label, i, net.Layers[i].Name)
		}
	}
}

// The batched engine's core property: ForwardAPBatch is bit-identical to
// per-item ForwardAP AND to the software reference run serially
// (ForwardInt per input) for N ∈ {1, 3, 8}, on both a sequential and a
// residual network.
func TestForwardAPBatchMatchesSerial(t *testing.T) {
	for _, name := range []string{"tinycnn", "tinyresnet"} {
		net := zooNet(t, name)
		c := compileNet(t, net, true)
		for _, n := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/N=%d", name, n), func(t *testing.T) {
				ins := make([]*tensor.Float, n)
				for i := range ins {
					ins[i] = randInput(uint64(100*n+i), net.InputShape)
				}
				got, err := ForwardAPBatch(c, ins)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("%d traces for %d inputs", len(got), n)
				}
				for i, in := range ins {
					serial, err := ForwardAP(c, in)
					if err != nil {
						t.Fatal(err)
					}
					assertTraceEqual(t, net, got[i], serial, fmt.Sprintf("item %d vs serial", i))
					ref, err := net.ForwardInt(in)
					if err != nil {
						t.Fatal(err)
					}
					assertTraceEqual(t, net, got[i], ref, fmt.Sprintf("item %d vs ForwardInt", i))
				}
			})
		}
	}
}

// The fused epilogue, ForwardAPBatch against ForwardInt on every layer for
// N ∈ {1, 3, 8}. Each conv/linear layer whose act-quant follows it must
// fuse, including the miniresnet18 layer4 convs, whose two strips run as
// separate tasks at four workers: only the last to accumulate a block may
// requantize it. A stage boundary between a conv and its act-quant must
// not fuse, and the stage after it requantizes.
func TestFusedRequantMatchesForwardInt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // strips only split to feed more than one worker
	splitFused := false
	for _, net := range []*model.Network{
		model.TinyCNN(model.DefaultConfig()),
		model.TinyResNet(model.DefaultConfig()),
		model.MiniResNet18(model.DefaultConfig(), 32, 32),
	} {
		c := compileNet(t, net, true)
		// fusable[i]: layer i is a conv/linear whose act-quant follows it.
		fusable := make([]bool, len(net.Layers))
		cut := -1 // a fusable conv the shard boundary separates from its act
		for i := range net.Layers[:len(net.Layers)-1] {
			a := &net.Layers[i+1]
			fusable[i] = c.Layers[i].Class == core.ClassConv && a.Kind == model.KindActQuant && a.Inputs[0] == i
			if fusable[i] && cut < 0 {
				cut = i
			}
		}
		for _, n := range []int{1, 3, 8} {
			ins := make([]*tensor.Float, n)
			want := make([]*model.IntTrace, n)
			for j := range ins {
				ins[j] = randInput(uint64(300*n+j), net.InputShape)
				var err error
				if want[j], err = net.ForwardInt(ins[j]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := ForwardAPBatch(c, ins)
			if err != nil {
				t.Fatal(err)
			}
			for j := range ins {
				assertTraceEqual(t, net, got[j], want[j], fmt.Sprintf("%s N=%d item %d", net.Name, n, j))
			}

			// The same walk observed: which layers the engine fused.
			for _, bounds := range [][]int{{0, len(net.Layers)}, {0, cut + 1, len(net.Layers)}} {
				fused := make([]bool, len(net.Layers))
				exec := func(i int, l *model.Layer, xs, outs []*tensor.Int, rq *model.Requant) (bool, error) {
					ok, err := convExec(c)(i, l, xs, outs, rq)
					fused[i] = ok
					if ok {
						sh, _ := LayerShape(c, i, len(xs), runtime.GOMAXPROCS(0))
						splitFused = splitFused || sh.PerTask < len(c.Layers[i].StripPlans)*sh.Parts
					}
					return ok, err
				}
				trs := make([]*model.IntTrace, n)
				for j, in := range ins {
					if trs[j], err = net.NewTrace(in); err != nil {
						t.Fatal(err)
					}
				}
				for k := 1; k < len(bounds); k++ {
					if err := net.ExecLayers(trs, bounds[k-1], bounds[k], exec, nil); err != nil {
						t.Fatal(err)
					}
				}
				for i, f := range fusable {
					if wantF := f && !(len(bounds) == 3 && i == cut); fused[i] != wantF {
						t.Fatalf("%s N=%d stages %v: layer %d (%s) fused %v, want %v",
							net.Name, n, bounds, i, net.Layers[i].Name, fused[i], wantF)
					}
				}
				for j := range ins {
					assertTraceEqual(t, net, trs[j], want[j], fmt.Sprintf("%s N=%d stages %v item %d", net.Name, n, bounds, j))
				}
			}
		}
	}
	if !splitFused {
		t.Fatal("no strip-split layer fused its act-quant; the test needs one")
	}
}

// Randomized single conv layers across strides, pads, kernel shapes and
// channel counts: the batched engine must equal the software reference's
// direct integer convolution (ForwardInt's layer-0 output) item by item.
func TestRunConvBatchMatchesForwardInt(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		cin := 1 + trial%5
		k := 1 + trial%3
		stride := 1 + trial%2
		h := k + 3 + trial
		net := singleConvNet(uint64(trial+21), cin, 2+trial, k, stride, k/2, h, 0.5)
		c := compileNet(t, net, true)

		const n = 5
		ins, want := make([]*tensor.Int, n), make([]*tensor.Int, n)
		for b := range ins {
			in := randInput(uint64(trial*10+b), net.InputShape)
			tr, err := net.ForwardInt(in)
			if err != nil {
				t.Fatal(err)
			}
			ins[b], want[b] = tr.InputCodes, tr.Outputs[0]
		}
		outs, err := RunConvBatch(c, 0, ins)
		if err != nil {
			t.Fatal(err)
		}
		for b := range ins {
			if !outs[b].Equal(want[b]) {
				t.Fatalf("trial %d item %d: batched conv != ForwardInt", trial, b)
			}
		}
	}
}

// The two task splits that share work inside one layer, N ∈ {1, 3, 8}
// against ForwardInt's layer-0 output item by item: a P = 49 layer with
// two tiles, whose row blocks cut items mid-word (49 rows per item, 4
// rows per word), and a P = 1 layer with two strips and enough ops that
// the strips run as separate tasks accumulating into one output region.
func TestRunConvBatchSplitsMatchForwardInt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // strips only split to feed more than one worker
	for _, tc := range []struct {
		name                string
		net                 *model.Network
		tiles, strips, p    int
		splitStripsAtBatch1 bool
	}{
		{"two-tile", singleConvNet(31, 128, 288, 3, 2, 1, 14, 0.5), 2, 3, 49, false},
		{"two-strip", singleConvNet(32, 3000, 48, 1, 1, 0, 1, 0.5), 1, 2, 1, true},
	} {
		c := compileNet(t, tc.net, true)
		plan := c.Layers[0]
		if len(plan.TileSizes) != tc.tiles || len(plan.StripPlans) != tc.strips || plan.P != tc.p {
			t.Fatalf("%s: compiled to %d tiles, %d strips, P=%d; the test needs %d, %d, %d",
				tc.name, len(plan.TileSizes), len(plan.StripPlans), plan.P, tc.tiles, tc.strips, tc.p)
		}
		if tc.splitStripsAtBatch1 {
			if sh, err := LayerShape(c, 0, 1, runtime.GOMAXPROCS(0)); err != nil || sh.Parts != 1 || sh.PerTask >= tc.strips {
				t.Fatalf("%s: %+v (err %v); the test needs whole strips split", tc.name, sh, err)
			}
		}
		for _, n := range []int{1, 3, 8} {
			ins, want := make([]*tensor.Int, n), make([]*tensor.Int, n)
			for b := range ins {
				tr, err := tc.net.ForwardInt(randInput(uint64(40*n+b), tc.net.InputShape))
				if err != nil {
					t.Fatal(err)
				}
				ins[b], want[b] = tr.InputCodes, tr.Outputs[0]
			}
			outs, err := RunConvBatch(c, 0, ins)
			if err != nil {
				t.Fatal(err)
			}
			for b := range ins {
				if !outs[b].Equal(want[b]) {
					t.Fatalf("%s N=%d item %d: batched conv != ForwardInt", tc.name, n, b)
				}
			}
		}
	}
}

// Every way convCtx.load fills an input column, end to end against
// ForwardInt for N ∈ {1, 3, 8} with two workers to feed: 3×3 stride-1
// pad-1 layers whose kernel rows derive from kernel row 1 by word copies
// (W 4, 8, 32; W 8 cuts items mid-row at N 3 and 8), one whose output
// rows are not whole words (W 7: every tap gathered), strided grids (7×7
// stride 2 pad 3, 1×1 stride 2), an output narrower than its input (3×3
// pad 0), a 1×1 plane, and weights sparse enough that some kernel-row-1
// taps are unbound, so taps that would derive from them gather instead.
func TestRunConvBatchLoadPathsMatchForwardInt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	midRow := false
	for _, tc := range []struct {
		name                   string
		cin, cout, k, s, pad   int
		h                      int
		sparsity               float64
		derive, words, unbound bool // the layer derives; its shifts are whole words; some source must be unbound
	}{
		{"3x3/W4", 8, 16, 3, 1, 1, 4, 0.5, true, true, false},
		{"3x3/W8", 8, 16, 3, 1, 1, 8, 0.5, true, true, false},
		{"3x3/W32", 4, 8, 3, 1, 1, 32, 0.5, true, true, false},
		{"3x3/W7", 8, 16, 3, 1, 1, 7, 0.5, true, false, false},
		{"7x7/stride2", 3, 8, 7, 2, 3, 16, 0.5, false, false, false},
		{"1x1/stride2", 8, 8, 1, 2, 0, 8, 0.5, false, false, false},
		{"3x3/pad0", 8, 8, 3, 1, 0, 8, 0.5, false, false, false},
		{"3x3/plane1x1", 16, 8, 3, 1, 1, 1, 0.5, true, false, false},
		{"3x3/sparse", 2, 2, 3, 1, 1, 8, 0.8, true, true, true},
	} {
		net := singleConvNet(7, tc.cin, tc.cout, tc.k, tc.s, tc.pad, tc.h, tc.sparsity)
		c := compileNet(t, net, true)
		plan, spec := c.Layers[0], net.Layers[0].ConvSpec()
		ctx := &convCtx{spec: spec}
		ctx.setTaps(net.InputShape, spec.OutShape(net.InputShape))
		words, unbound := true, false
		for _, tp := range plan.StripPlans[0].Programs {
			for i, in := range tp.Inputs() {
				kh, shift := in.K/tc.k, ctx.taps[in.K].shift
				words = words && (kh == tc.pad || shift%4 == 0)
				unbound = unbound || kh != tc.pad && tp.TapSources(tc.k, tc.pad)[i] < 0
			}
		}
		if ctx.derive != tc.derive || ctx.derive && (words != tc.words || tc.unbound && !unbound) {
			t.Fatalf("%s: derive %v, whole-word shifts %v, unbound sources %v; the case needs %v, %v, %v",
				tc.name, ctx.derive, words, unbound, tc.derive, tc.words, tc.unbound)
		}
		for _, n := range []int{1, 3, 8} {
			if sh, err := LayerShape(c, 0, n, runtime.GOMAXPROCS(0)); err != nil {
				t.Fatal(err)
			} else if out := spec.OutShape(net.InputShape); tc.derive && sh.Block < n*plan.P && sh.Block%plan.P%out.W != 0 {
				midRow = true
			}
			ins := make([]*tensor.Float, n)
			for i := range ins {
				ins[i] = randInput(uint64(60*n+i), net.InputShape)
			}
			got, err := ForwardAPBatch(c, ins)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				ref, err := net.ForwardInt(in)
				if err != nil {
					t.Fatal(err)
				}
				assertTraceEqual(t, net, got[i], ref, fmt.Sprintf("%s N=%d item %d vs ForwardInt", tc.name, n, i))
			}
		}
	}
	if !midRow {
		t.Fatal("no derivable case cut an item mid-row; the sweep lost its point")
	}
}

// Programs cut into parts, every vgg9 layer against ForwardInt for N ∈
// {1, 3}, with each conv's act-quant fused and not. The cuts are forced
// on every layer, one part a task on four workers: 3 parts divide no
// layer's channels, conv1_1's 3 channels are fewer than 4 wanted,
// conv3_2's parts run in two strips, and conv1_2 at N = 3 also cuts rows.
// Parts of one block finish in any order; the last requantizes it.
func TestPartsMatchForwardInt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	net := model.VGG9(model.DefaultConfig())
	c := compileNet(t, net, true)
	var uneven, fewer, twoStrips, blocksToo bool
	for _, g := range []int{3, 4} {
		for _, n := range []int{1, 3} {
			ins := make([]*tensor.Float, n)
			want := make([]*model.IntTrace, n)
			for j := range ins {
				ins[j] = randInput(uint64(500+10*n+j), net.InputShape)
				var err error
				if want[j], err = net.ForwardInt(ins[j]); err != nil {
					t.Fatal(err)
				}
			}
			for _, fuse := range []bool{true, false} {
				exec := func(i int, l *model.Layer, xs, outs []*tensor.Int, rq *model.Requant) (bool, error) {
					if !fuse {
						rq = nil
					}
					plan, spec := c.Layers[i], l.ConvSpec()
					for b := range outs {
						outs[b] = tensor.NewInt(spec.OutShape(xs[0].Shape))
					}
					ctx := &convCtx{plan: plan, spec: spec, ins: xs, outs: outs, rq: rq}
					ctx.setTaps(xs[0].Shape, outs[0].Shape)
					sh, err := ctx.shape(i, len(xs)*plan.P, 1)
					if err != nil {
						return false, err
					}
					sh.Parts, sh.PerTask = g, 1
					if err := ctx.cut(&sh); err != nil {
						return false, err
					}
					chans := len(plan.StripPlans[0].Programs[0].ChanAt)
					uneven = uneven || sh.Parts > 1 && chans%sh.Parts != 0
					fewer = fewer || sh.Parts < g && sh.Parts == chans
					twoStrips = twoStrips || sh.Parts > 1 && len(plan.StripPlans) > 1
					blocksToo = blocksToo || sh.Parts > 1 && sh.Blocks > 1
					ctx.exec(sh)
					return rq != nil, nil
				}
				trs := make([]*model.IntTrace, n)
				for j, in := range ins {
					var err error
					if trs[j], err = net.NewTrace(in); err != nil {
						t.Fatal(err)
					}
				}
				if err := net.ExecLayers(trs, 0, len(net.Layers), exec, nil); err != nil {
					t.Fatal(err)
				}
				for j := range ins {
					assertTraceEqual(t, net, trs[j], want[j], fmt.Sprintf("%d parts N=%d fused %v item %d", g, n, fuse, j))
				}
			}
		}
	}
	if !uneven || !fewer || !twoStrips || !blocksToo {
		t.Fatalf("cuts covered: uneven %v, fewer channels than parts %v, two strips %v, blocks and parts %v; the test needs all",
			uneven, fewer, twoStrips, blocksToo)
	}
}

// Derivation is refused for a segment whose first row is not word-aligned
// at the machine's own lane. taskShape aligns blocks to the fewest rows
// per word among a layer's plans, so a layer mixing lanes hands a 16-bit
// plan blocks whose batch items start two rows into a word; driving such
// blocks through runConvTask must gather those segments (CopyRows would
// panic) and still equal ForwardInt.
func TestDeriveRefusesUnalignedSegments(t *testing.T) {
	net := singleConvNet(9, 8, 16, 3, 1, 1, 8, 0.5)
	c := compileNet(t, net, true)
	plan, spec := c.Layers[0], net.Layers[0].ConvSpec()
	const n = 2
	ins, want, outs := make([]*tensor.Int, n), make([]*tensor.Int, n), make([]*tensor.Int, n)
	for b := range ins {
		tr, err := net.ForwardInt(randInput(uint64(70+b), net.InputShape))
		if err != nil {
			t.Fatal(err)
		}
		ins[b], want[b] = tr.InputCodes, tr.Outputs[0]
		outs[b] = tensor.NewInt(spec.OutShape(net.InputShape))
	}
	ctx := &convCtx{plan: plan, spec: spec, ins: ins, outs: outs}
	ctx.setTaps(net.InputShape, spec.OutShape(net.InputShape))
	if _, err := ctx.shape(0, n*plan.P, 1); err != nil {
		t.Fatal(err)
	}
	for _, ps := range ctx.parts {
		if ep := ps[0].Plan; ep.LaneBits() != 16 {
			t.Fatalf("plan runs %d-bit lanes; the test needs 16", ep.LaneBits())
		}
	}
	if !ctx.derive || ctx.taps[0].shift%4 != 0 {
		t.Fatal("the layer must derive with whole-word shifts: only the segment's first row may refuse")
	}
	off := 0
	for _, ts := range plan.TileSizes {
		ctx.tile = append(ctx.tile, off)
		off += ts
	}
	// Blocks of P − 2 rows: the second starts two rows before item 1, whose
	// segment then starts at machine row 2.
	rows, block := n*plan.P, plan.P-2
	for tile := range plan.TileSizes {
		for g0 := 0; g0 < rows; g0 += block {
			ctx.wg.Add(1)
			runConvTask(convTask{ctx: ctx, tile: tile, u0: 0, u1: len(plan.StripPlans), g0: g0, g1: min(g0+block, rows)})
		}
	}
	for b := range outs {
		if !outs[b].Equal(want[b]) {
			t.Fatalf("item %d: conv over two-row-aligned blocks != ForwardInt", b)
		}
	}
}

// A task must keep enough work to pay for its hand-off: every tinycnn
// layer at batch 8 — 19 to 46 ops over at most 512 rows — stays one task
// however many workers there are to feed.
func TestTinyConvStaysOneTask(t *testing.T) {
	c := compileNet(t, model.TinyCNN(model.DefaultConfig()), true)
	for _, workers := range []int{1, 2, 16} {
		for i, plan := range c.Layers {
			if plan.Class != core.ClassConv {
				continue
			}
			sh, err := LayerShape(c, i, 8, workers)
			if err != nil {
				t.Fatal(err)
			}
			if rows := 8 * plan.P; sh.Block < rows || sh.PerTask != len(plan.StripPlans) || sh.Parts != 1 {
				t.Errorf("%d workers: %s at batch 8 splits into blocks of %d of %d rows, %d of %d strips per task, %d parts",
					workers, plan.Name, sh.Block, rows, sh.PerTask, len(plan.StripPlans), sh.Parts)
			}
		}
	}
}

// taskShape on the shapes the budget was taken on (vgg9 and resnet18, 4
// rows per word, 2 workers), and its invariants over a sweep.
func TestTaskShape(t *testing.T) {
	for _, tc := range []struct {
		name                                   string
		rows, tiles, strips, chans, slots, ops int
		wantBlock, wantBlocks, wantPerTask     int
		wantParts                              int
	}{
		// conv1_x at batch 1: a quarter of 1 024 rows is 64 words a
		// column, long enough to cut rows. conv1_1's 3 channels and 357
		// ops would lose more to four parts each accumulating 64 × 1 024
		// sums than rows lose to re-running them.
		{"vgg9 conv1_1 b1", 1024, 1, 1, 3, 104, 357, 256, 4, 1, 1},
		{"vgg9 conv1_2 b1", 1024, 1, 1, 64, 656, 6304, 256, 4, 1, 1},
		// From conv2_1 on, a row cut that feeds two workers leaves blocks
		// under four cache lines: each program runs in four parts over
		// every row instead, and runs each op once.
		{"vgg9 conv2_1 b1", 256, 1, 1, 64, 731, 11722, 256, 1, 1, 4},
		{"vgg9 conv2_2 b1", 256, 1, 1, 128, 1308, 23627, 256, 1, 1, 4},
		{"vgg9 conv3_1 b1", 64, 1, 1, 128, 1448, 44099, 64, 1, 1, 4},
		// At batch 8 the arena would hold 512 rows; feeding two workers
		// cuts them in four, 32 words a column: rows, not parts.
		{"vgg9 conv3_1 b8", 512, 1, 1, 128, 1448, 44099, 128, 4, 1, 1},
		// A table as wide as conv3_1's 16 329 columns: the budget cuts the
		// same rows in eight.
		{"vgg9 conv3_1 b8 by columns", 512, 1, 1, 128, 16329, 44099, 64, 8, 1, 1},
		// Two strips and only one block: the strips split, then each
		// strip's program into two parts.
		{"vgg9 conv3_2 b1", 64, 1, 2, 128, 1451, 88113, 64, 1, 1, 2},
		// One row: nothing to split but the strips.
		{"vgg9 fc1 b1", 1, 1, 4, 1024, 1281, 210598, 4, 1, 1, 1},
		{"vgg9 fc2 b1", 1, 1, 4, 256, 321, 14056, 4, 1, 4, 1},
		// The arena budget, not the worker count, sets the block.
		{"vgg9 conv1_2 b8", 8192, 1, 1, 64, 656, 6304, 1368, 6, 1, 1},
		{"vgg9 conv1_2 b8 by columns", 8192, 1, 1, 64, 3034, 6304, 344, 24, 1, 1},
		// 49 rows is under two cache lines of lanes: one block, and the two
		// tiles' strips split instead.
		{"resnet18 layer4 b1", 49, 2, 4, 128, 1550, 175383, 52, 1, 2, 1},
	} {
		block, perTask, parts := taskShape(tc.rows, tc.tiles, tc.strips, tc.chans, tc.slots, tc.ops, 4, 2)
		blocks := (tc.rows + block - 1) / block
		if block != tc.wantBlock || blocks != tc.wantBlocks || perTask != tc.wantPerTask || parts != tc.wantParts {
			t.Errorf("%s: blocks of %d rows (%d of them), %d per task, %d parts; want %d (%d), %d, %d",
				tc.name, block, blocks, perTask, parts, tc.wantBlock, tc.wantBlocks, tc.wantPerTask, tc.wantParts)
		}
	}
	const tiles, strips = 2, 3
	for _, lanes := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 8} {
			want := (2*workers + tiles - 1) / tiles
			for rows := 1; rows < 3000; rows += 37 {
				for _, chans := range []int{1, 2, 5, 64} {
					for _, slots := range []int{9, 300, 20000} {
						for _, ops := range []int{1, 19, 5000, 300000} {
							block, perTask, parts := taskShape(rows, tiles, strips, chans, slots, ops, lanes, workers)
							words, blocks := block/lanes, (rows+block-1)/block
							switch {
							case block < 1 || block%lanes != 0:
								t.Fatalf("block of %d rows at %d rows per word", block, lanes)
							case perTask < 1 || perTask > strips:
								t.Fatalf("%d strips per task of %d", perTask, strips)
							case words >= 2*lineWords && slots*(words-1)*8 > arenaBudget:
								t.Fatalf("rows %d slots %d: %d-word blocks overflow the arena budget", rows, slots, words)
							case words < lineWords && block < rows:
								t.Fatalf("rows %d: %d-word blocks are below a cache line", rows, words)
							case parts < 1 || parts > chans:
								t.Fatalf("%d channels cut into %d parts", chans, parts)
							case parts > 1 && perTask != 1:
								t.Fatalf("parts run %d strips a task", perTask)
							// Parts feed the pool unless the channels or the
							// hand-off work cap them.
							case parts > 1 && blocks*strips*parts < want && parts < chans &&
								strips*(parts+1)*handoffWork <= ops*min(block, rows):
								t.Fatalf("rows %d chans %d ops %d: %d blocks × %d parts feed %d of %d", rows, chans, ops, blocks, parts, blocks*strips*parts, want)
							}
						}
					}
				}
			}
		}
	}
}

// StepBatch under a shard plan: a batch of runs advanced stage by stage
// must end bit-identical to ForwardAP, and mismatched-stage batches must
// fall back to individual stepping rather than corrupt state.
func TestStepBatchMatchesStep(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, true)
	sp := partitionEven(t, c, Analyze(c), 3)

	const n = 4
	ins := make([]*tensor.Float, n)
	runs := make([]*ShardRun, n)
	for i := range ins {
		ins[i] = randInput(uint64(i+500), net.InputShape)
		var err error
		if runs[i], err = NewShardRun(c, sp, ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	for !runs[0].Done() {
		for i, err := range StepBatch(runs, nil) {
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		}
	}
	for i, in := range ins {
		ref, err := ForwardAP(c, in)
		if err != nil {
			t.Fatal(err)
		}
		if !runs[i].Logits().Equal(ref.Logits()) {
			t.Fatalf("run %d: sharded batch logits diverge from ForwardAP", i)
		}
	}

	// Mismatched stages: one fresh run alongside finished ones falls back
	// to per-run stepping; the finished runs report completion errors and
	// the fresh one still advances correctly.
	fresh, err := NewShardRun(c, sp, ins[0])
	if err != nil {
		t.Fatal(err)
	}
	mixed := []*ShardRun{runs[0], fresh}
	for !fresh.Done() {
		errs := StepBatch(mixed, nil)
		if errs[0] == nil {
			t.Fatal("completed run must error on further steps")
		}
		if errs[1] != nil {
			t.Fatalf("fresh run: %v", errs[1])
		}
	}
	ref, err := ForwardAP(c, ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Logits().Equal(ref.Logits()) {
		t.Fatal("fallback-stepped run diverges from ForwardAP")
	}
}

// The pooled steady-state path is allocation-free per call: once the
// pools have seen the workload's shapes, RunConvBatchInto performs a
// whole batched layer execution without a single heap allocation.
// testing.AllocsPerRun divides total allocations by the run count, so
// stray pool refills (a GC emptying a sync.Pool mid-measurement) wash
// out instead of flaking the gate.
func TestRunConvBatchIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// tinycnn's first conv at batch 4, and at batch 1 a layer that two
	// workers split into parts: its part views are memoized, so once
	// cut they cost nothing per call either.
	for _, tc := range []struct {
		net   *model.Network
		n     int
		parts bool
	}{
		{model.TinyCNN(model.DefaultConfig()), 4, false},
		{singleConvNet(11, 64, 64, 3, 1, 1, 8, 0.5), 1, true},
	} {
		c := compileNet(t, tc.net, true)
		if sh, err := LayerShape(c, 0, tc.n, 2); err != nil || (sh.Parts > 1) != tc.parts {
			t.Fatalf("%s at batch %d: %+v (err %v); the case needs parts %v", tc.net.Name, tc.n, sh, err, tc.parts)
		}
		ins := make([]*tensor.Int, tc.n)
		outs := make([]*tensor.Int, tc.n)
		spec := c.Net.Layers[0].ConvSpec()
		for b := range ins {
			in := randInput(uint64(b+900), tc.net.InputShape)
			tr, err := tc.net.ForwardInt(in)
			if err != nil {
				t.Fatal(err)
			}
			ins[b] = tr.InputCodes
			outs[b] = tensor.NewInt(spec.OutShape(tr.InputCodes.Shape))
		}
		run := func() {
			if err := RunConvBatchInto(c, 0, ins, outs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 32; i++ {
			run() // warm the pools, the worker fleet, and every ExecPlan
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("%s: steady-state RunConvBatchInto allocates %.1f times per call, want 0", tc.net.Name, avg)
		}
	}
}

// traceBytes is the payload of a trace's tensors: the input codes and
// every layer output, counting a buffer two layers share (Flatten's view)
// once.
func traceBytes(tr *model.IntTrace) int {
	seen := map[*int32]bool{}
	n := 0
	for _, x := range append([]*tensor.Int{tr.InputCodes}, tr.Outputs...) {
		if p := &x.Data[:1][0]; !seen[p] {
			seen[p] = true
			n += 4 * cap(x.Data)
		}
	}
	return n
}

// A call allocates each tensor of its traces once: its bytes are the
// traces' tensors plus at most perLayerItem per layer and item (tensor
// and trace headers, the walker's scratch), so an act-quant output
// allocated twice — for the fused epilogue and again in the walker —
// fails, whether or not the executor fused it. A collection that empties
// the engine's pools mid-measurement refills them; the least of three
// rounds is the steady state.
func TestForwardAllocatesEachTensorOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const perLayerItem = 160
	for _, net := range []*model.Network{
		model.TinyCNN(model.DefaultConfig()),
		model.MiniResNet18(model.DefaultConfig(), 32, 32),
	} {
		c := compileNet(t, net, true)
		for _, n := range []int{1, 8} {
			ins := make([]*tensor.Float, n)
			for j := range ins {
				ins[j] = randInput(uint64(700+j), net.InputShape)
			}
			var trs []*model.IntTrace
			runs := map[string]func(){
				"ForwardAPBatch": func() {
					var err error
					if trs, err = ForwardAPBatch(c, ins); err != nil {
						t.Fatal(err)
					}
				},
			}
			// An executor that declines every Requant, as the software
			// reference does: the walker requantizes into the tensors it
			// allocated for the epilogue.
			runs["declined"] = func() {
				decline := func(i int, l *model.Layer, xs, outs []*tensor.Int, _ *model.Requant) (bool, error) {
					return convExec(c)(i, l, xs, outs, nil)
				}
				trs = make([]*model.IntTrace, n)
				for j, in := range ins {
					var err error
					if trs[j], err = net.NewTrace(in); err != nil {
						t.Fatal(err)
					}
				}
				if err := net.ExecLayers(trs, 0, len(net.Layers), decline, nil); err != nil {
					t.Fatal(err)
				}
			}
			for name, run := range runs {
				run() // warm the pools and every ExecPlan
				const calls = 5
				allocs := testing.AllocsPerRun(calls, run)
				bytes := math.MaxInt
				for range 3 {
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					for range calls {
						run()
					}
					runtime.ReadMemStats(&m1)
					bytes = min(bytes, int(m1.TotalAlloc-m0.TotalAlloc)/calls)
				}
				tensors := 0
				for _, tr := range trs {
					tensors += traceBytes(tr)
				}
				layers := len(net.Layers)
				t.Logf("%s %s N=%d: %.0f allocs, %d B (tensors %d B, +%d B/layer/item)",
					net.Name, name, n, allocs, bytes, tensors, (bytes-tensors)/(layers*n))
				if limit := tensors + perLayerItem*layers*n; bytes > limit {
					t.Errorf("%s %s N=%d: %d B per call, want <= %d (tensors %d + %d per layer and item)",
						net.Name, name, n, bytes, limit, tensors, perLayerItem)
				}
				// Two allocations per layer output (header, data) and a few
				// per trace and per call.
				if limit := float64(n*(2*layers+8) + 8); allocs > limit {
					t.Errorf("%s %s N=%d: %.0f allocations per call, want <= %.0f", net.Name, name, n, allocs, limit)
				}
			}
		}
	}
}

// benchNet compiles a zoo network with programs retained for the
// functional-execution benchmarks.
func benchNet(b *testing.B, name string) (*model.Network, *core.Compiled) {
	b.Helper()
	net := zooNet(b, name)
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	c, err := core.Compile(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return net, c
}

// BenchmarkRunFunctional measures functional execution on the batched
// ExecPlan engine, batch 1 and, for vgg9, batch 8 (the gated engine_stream
// and engine_batch workloads of ./benchmark, here under -cpuprofile's
// reach); ns/infer divides by the batch. resnet18 is the benchmark's
// recorded headline. vgg9 and resnet18 run only without -short (a full
// CIFAR- or ImageNet-scale compile and inference).
func BenchmarkRunFunctional(b *testing.B) {
	for _, name := range []string{"tinycnn", "miniresnet18", "vgg9", "resnet18"} {
		b.Run(name, func(b *testing.B) {
			if testing.Short() && (name == "vgg9" || name == "resnet18") {
				b.Skip("full-scale functional simulation")
			}
			net, c := benchNet(b, name)
			batches := []int{1}
			if name == "vgg9" {
				batches = append(batches, 8)
			}
			for _, n := range batches {
				b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
					ins := make([]*tensor.Float, n)
					for j := range ins {
						ins[j] = randInput(uint64(7+j), net.InputShape)
					}
					// One call before the loop lowers every tile program (ExecPlan
					// builds lazily, slots included) and grows the arenas, so the
					// timed loop is the steady state; b.Loop starts the timer.
					if _, err := ForwardAPBatch(c, ins); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					for b.Loop() {
						if _, err := ForwardAPBatch(c, ins); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/infer")
				})
			}
		})
	}
}

// BenchmarkRunConvBatch measures one conv layer at increasing batch
// sizes; ns/op is divided by the batch so the per-inference amortization
// is directly visible.
func BenchmarkRunConvBatch(b *testing.B) {
	for _, name := range []string{"tinycnn", "miniresnet18"} {
		net, c := benchNet(b, name)
		for _, batch := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/batch%d", name, batch), func(b *testing.B) {
				ins := make([]*tensor.Int, batch)
				outs := make([]*tensor.Int, batch)
				spec := c.Net.Layers[0].ConvSpec()
				for i := range ins {
					tr, err := net.ForwardInt(randInput(uint64(i), net.InputShape))
					if err != nil {
						b.Fatal(err)
					}
					ins[i] = tr.InputCodes
					outs[i] = tensor.NewInt(spec.OutShape(tr.InputCodes.Shape))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := RunConvBatchInto(c, 0, ins, outs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/infer")
			})
		}
	}
}
