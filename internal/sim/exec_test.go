package sim

import (
	"fmt"
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
	nets := map[string]*model.Network{
		"tinycnn":    model.TinyCNN(model.DefaultConfig()),
		"tinyresnet": model.TinyResNet(model.DefaultConfig()),
	}
	for name, net := range nets {
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
			ctx := &convCtx{plan: plan, ins: make([]*tensor.Int, 1)}
			if _, perTask, err := ctx.shape(0); err != nil || perTask >= tc.strips {
				t.Fatalf("%s: %d strips per task (err %v); the test needs them split", tc.name, perTask, err)
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
			ctx := &convCtx{plan: plan, ins: make([]*tensor.Int, n)}
			if block, _, err := ctx.shape(0); err != nil {
				t.Fatal(err)
			} else if out := spec.OutShape(net.InputShape); tc.derive && block < n*plan.P && block%plan.P%out.W != 0 {
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
	if _, _, err := ctx.shape(0); err != nil {
		t.Fatal(err)
	}
	for _, ep := range ctx.plans {
		if ep.LaneBits() != 16 {
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
			runConvTask(convTask{ctx: ctx, tile: tile, s0: 0, s1: len(plan.StripPlans), g0: g0, g1: min(g0+block, rows)})
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
	for _, procs := range []int{1, 2, 16} {
		prev := runtime.GOMAXPROCS(procs)
		for i, plan := range c.Layers {
			if plan.Class != core.ClassConv {
				continue
			}
			ctx := &convCtx{plan: plan, ins: make([]*tensor.Int, 8)}
			block, perTask, err := ctx.shape(i)
			if err != nil {
				t.Fatal(err)
			}
			if rows := 8 * plan.P; block < rows || perTask != len(plan.StripPlans) {
				t.Errorf("GOMAXPROCS %d: %s at batch 8 splits into blocks of %d of %d rows, %d of %d strips per task",
					procs, plan.Name, block, rows, perTask, len(plan.StripPlans))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// taskShape on the shapes the budget was taken on (vgg9 and resnet18, 4
// rows per word, 2 workers), and its invariants over a sweep.
func TestTaskShape(t *testing.T) {
	for _, tc := range []struct {
		name                                 string
		rows, tiles, strips, cols, ops       int
		wantBlock, wantBlocks, wantStripsPer int
	}{
		// 64 rows of 16 329 columns: two blocks, each one cache line of
		// lanes per column — the floor, not camRows, sets the block.
		{"vgg9 conv3_1 b1", 64, 1, 1, 16329, 44099, 32, 2, 1},
		{"vgg9 conv3_1 b8", 512, 1, 1, 16329, 44099, 64, 8, 1},
		// Two strips and only two blocks: the strips split too.
		{"vgg9 conv3_2 b1", 64, 1, 2, 16301, 88113, 32, 2, 1},
		// One row: nothing to split but the strips.
		{"vgg9 fc1 b1", 1, 1, 4, 1281, 210598, 4, 1, 1},
		{"vgg9 fc2 b1", 1, 1, 4, 321, 14056, 4, 1, 4},
		// The arena budget, not the worker count, sets the block.
		{"vgg9 conv1_2 b8", 8192, 1, 1, 3034, 6304, 344, 24, 1},
		// 49 rows is under two cache lines of lanes: one block, and the two
		// tiles' strips split instead.
		{"resnet18 layer4 b1", 49, 2, 4, 20244, 175383, 52, 1, 2},
	} {
		block, perTask := taskShape(tc.rows, tc.tiles, tc.strips, tc.cols, tc.ops, 4, 2)
		blocks := (tc.rows + block - 1) / block
		if block != tc.wantBlock || blocks != tc.wantBlocks || perTask != tc.wantStripsPer {
			t.Errorf("%s: blocks of %d rows (%d of them), %d strips per task; want %d (%d), %d",
				tc.name, block, blocks, perTask, tc.wantBlock, tc.wantBlocks, tc.wantStripsPer)
		}
	}
	for _, lanes := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 8} {
			for rows := 1; rows < 3000; rows += 37 {
				for _, cols := range []int{9, 300, 20000} {
					for _, ops := range []int{1, 19, 5000, 300000} {
						block, perTask := taskShape(rows, 2, 3, cols, ops, lanes, workers)
						words := block / lanes
						switch {
						case block < 1 || block%lanes != 0:
							t.Fatalf("block of %d rows at %d rows per word", block, lanes)
						case perTask < 1 || perTask > 3:
							t.Fatalf("%d strips per task of 3", perTask)
						case words >= 2*lineWords && cols*(words-1)*8 > arenaBudget:
							t.Fatalf("rows %d cols %d: %d-word blocks overflow the arena budget", rows, cols, words)
						case words < lineWords && block < rows:
							t.Fatalf("rows %d: %d-word blocks are below a cache line", rows, words)
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
	rep := Analyze(c)
	costs := make([]float64, len(rep.Layers))
	for i, lr := range rep.Layers {
		costs[i] = lr.LatencyNS
	}
	sp, err := core.Partition(c, 3, costs)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	ins := make([]*tensor.Float, n)
	runs := make([]*ShardRun, n)
	for i := range ins {
		ins[i] = randInput(uint64(i+500), net.InputShape)
		runs[i], err = NewShardRun(c, sp, ins[i])
		if err != nil {
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
	net := model.TinyCNN(model.DefaultConfig())
	c := compileNet(t, net, true)

	const n = 4
	ins := make([]*tensor.Int, n)
	outs := make([]*tensor.Int, n)
	spec := c.Net.Layers[0].ConvSpec()
	for b := range ins {
		in := randInput(uint64(b+900), net.InputShape)
		tr, err := net.ForwardInt(in)
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
		t.Fatalf("steady-state RunConvBatchInto allocates %.1f times per call, want 0", avg)
	}
}

// benchNet compiles a zoo network with programs retained for the
// functional-execution benchmarks.
func benchNet(b *testing.B, name string) (*model.Network, *core.Compiled) {
	b.Helper()
	var net *model.Network
	switch name {
	case "tinycnn":
		net = model.TinyCNN(model.DefaultConfig())
	case "miniresnet18":
		net = model.MiniResNet18(model.DefaultConfig(), 32, 32)
	case "vgg9":
		net = model.VGG9(model.DefaultConfig())
	case "resnet18":
		net = model.ResNet18(model.DefaultConfig())
	default:
		b.Fatalf("unknown bench network %q", name)
	}
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	c, err := core.Compile(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return net, c
}

// BenchmarkRunFunctional measures single-stream functional execution on
// the batched ExecPlan engine (batch = 1). vgg9 is what the gated
// engine_stream workload of ./benchmark runs, here under -cpuprofile's
// reach; resnet18 is the benchmark's recorded headline. Both run only
// without -short (a full CIFAR- or ImageNet-scale compile and inference).
func BenchmarkRunFunctional(b *testing.B) {
	for _, name := range []string{"tinycnn", "miniresnet18", "vgg9", "resnet18"} {
		b.Run(name, func(b *testing.B) {
			if testing.Short() && (name == "vgg9" || name == "resnet18") {
				b.Skip("full-scale functional simulation")
			}
			net, c := benchNet(b, name)
			in := randInput(7, net.InputShape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ForwardAP(c, in); err != nil {
					b.Fatal(err)
				}
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
