package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"

	"rtmap/internal/ap"
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
						sh, _ := LayerShape(c, i, len(xs), runtime.GOMAXPROCS(0), rq != nil && rq.Pool)
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

// The fused pool, every layer against ForwardInt, and every max-pool
// output against tensor.MaxPoolInt of its input in the same trace. Each
// conv whose act feeds a non-overlapping pool must pool in the tasks
// that requantize, on machines from a dirtied free list:
//   - vgg9 at N ∈ {1, 3, 8} in the engine's own task shapes, for two
//     workers and four;
//   - vgg9 with every pooled layer forced into parts run one a task, so
//     a block's tasks are parts of one strip or strips of conv3_2 and the
//     last to accumulate pools, in blocks of one window row and of three,
//     which start mid-item and span items;
//   - vgg11's two-tile conv4_2 and conv5_2 (P = 16 and 4) in blocks of
//     one window row, at N ∈ {1, 3};
//   - a shard cut between act and pool, and one between conv and act:
//     neither fuses the pool, and the stage after it pools;
//   - miniresnet18, whose 3×3 s2 p1 stem pool overlaps and stays in the
//     walker.
func TestFusedPoolMatchesForwardInt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dirty = 8 // machines: more than the tasks that run at once
	type forced struct {
		windows, parts int // block length in window rows; parts a task. 0: the engine's
	}
	var midItem, shared bool
	// walk runs net over ins, stage by stage, with each pooled layer's
	// shape forced as f says, and reports the layers that fused a pool.
	walk := func(c *core.Compiled, ins []*tensor.Float, bounds []int, f forced) ([]*model.IntTrace, []bool) {
		net := c.Net
		pooled := make([]bool, len(net.Layers))
		exec := func(i int, l *model.Layer, xs, outs []*tensor.Int, rq *model.Requant) (bool, error) {
			if rq == nil || !rq.Pool || f.windows == 0 {
				ok, err := convExec(c)(i, l, xs, outs, rq)
				pooled[i] = ok && rq != nil && rq.Pool
				return ok, err
			}
			plan, spec := c.Layers[i], l.ConvSpec()
			for b := range outs {
				outs[b] = tensor.NewInt(spec.OutShape(xs[0].Shape))
			}
			ctx := &convCtx{plan: plan, spec: spec, ins: xs, outs: outs, rq: rq}
			ctx.setTaps(xs[0].Shape, outs[0].Shape)
			rows := len(xs) * plan.P
			sh, err := ctx.shape(i, rows, runtime.GOMAXPROCS(0))
			if err != nil {
				return false, err
			}
			sh.Block = min(rows, f.windows*2*plan.OutW)
			sh.Blocks = (rows + sh.Block - 1) / sh.Block
			if f.parts > 0 {
				sh.Parts, sh.PerTask = f.parts, 1
			}
			if err := ctx.cut(&sh); err != nil {
				return false, err
			}
			midItem = midItem || sh.Block%plan.P != 0 && sh.Block < rows
			shared = shared || sh.PerTask < len(plan.StripPlans)*sh.Parts
			ctx.exec(sh)
			pooled[i] = true
			return true, nil
		}
		trs := make([]*model.IntTrace, len(ins))
		for j, in := range ins {
			var err error
			if trs[j], err = net.NewTrace(in); err != nil {
				t.Fatal(err)
			}
		}
		dirtyMachines(t, dirty)
		for k := 1; k < len(bounds); k++ {
			if err := net.ExecLayers(trs, bounds[k-1], bounds[k], exec, nil); err != nil {
				t.Fatal(err)
			}
		}
		return trs, pooled
	}
	// check holds trs to ForwardInt and every pool to its input's, and
	// the layers that fused a pool to want.
	check := func(net *model.Network, trs, want []*model.IntTrace, pooled, wantPooled []bool, label string) {
		t.Helper()
		for j := range trs {
			assertTraceEqual(t, net, trs[j], want[j], fmt.Sprintf("%s item %d", label, j))
			for i, l := range net.Layers {
				if l.Kind == model.KindMaxPool && !trs[j].Outputs[i].Equal(tensor.MaxPoolInt(trs[j].Outputs[l.Inputs[0]], l.Pool)) {
					t.Fatalf("%s item %d: %s is not the max-pool of its input", label, j, l.Name)
				}
			}
		}
		if !slices.Equal(pooled, wantPooled) {
			t.Fatalf("%s: layers that fused a pool %v, want %v", label, pooled, wantPooled)
		}
	}
	// inputs returns n inputs and their ForwardInt traces; a batch of
	// fewer takes a prefix, as the oracle is most of the test's time.
	inputs := func(net *model.Network, n int) ([]*tensor.Float, []*model.IntTrace) {
		ins, want := make([]*tensor.Float, n), make([]*model.IntTrace, n)
		for j := range ins {
			ins[j] = randInput(uint64(900+j), net.InputShape)
			var err error
			if want[j], err = net.ForwardInt(ins[j]); err != nil {
				t.Fatal(err)
			}
		}
		return ins, want
	}
	// fusable marks the convs a whole walk hands a pool.
	fusable := func(c *core.Compiled) []bool {
		out := make([]bool, len(c.Net.Layers))
		for i, p := range c.Layers {
			s := tensor.Shape{N: 1, C: p.OutC, H: p.OutH, W: p.OutW}
			out[i] = p.Class == core.ClassConv && c.Net.FusablePool(i, s)
		}
		return out
	}

	vgg9 := compileNet(t, model.VGG9(model.DefaultConfig()), true)
	all := []int{0, len(vgg9.Net.Layers)}
	want9 := fusable(vgg9)
	for i, l := range vgg9.Net.Layers {
		if want9[i] != slices.Contains([]string{"conv1_2", "conv2_2", "conv3_2"}, l.Name) {
			t.Fatalf("vgg9 %s: pool handed %v", l.Name, want9[i])
		}
	}
	ins8, want8 := inputs(vgg9.Net, 8)
	for _, n := range []int{1, 3, 8} {
		ins, want := ins8[:n], want8[:n]
		// Two workers cut conv1_2 at N = 8 by the arena budget alone,
		// where only the window alignment keeps blocks whole windows.
		for _, w := range []int{2, 4} {
			runtime.GOMAXPROCS(w)
			trs, pooled := walk(vgg9, ins, all, forced{})
			check(vgg9.Net, trs, want, pooled, want9, fmt.Sprintf("vgg9 N=%d on %d workers", n, w))
		}
		if n != 3 {
			continue
		}
		for _, f := range []forced{{1, 2}, {3, 4}, {3, 0}} {
			trs, pooled := walk(vgg9, ins, all, f)
			check(vgg9.Net, trs, want, pooled, want9, fmt.Sprintf("vgg9 N=%d %+v", n, f))
		}
		// The stage cuts: conv3_2 | act | pool3.
		li := slices.IndexFunc(vgg9.Net.Layers, func(l model.Layer) bool { return l.Name == "conv3_2" })
		for _, cut := range []int{li + 1, li + 2} {
			trs, pooled := walk(vgg9, ins, []int{0, cut, len(vgg9.Net.Layers)}, forced{})
			wantCut := slices.Clone(want9)
			wantCut[li] = false
			check(vgg9.Net, trs, want, pooled, wantCut, fmt.Sprintf("vgg9 N=%d cut at %d", n, cut))
		}
	}
	if !midItem || !shared {
		t.Fatalf("blocks that start mid-item %v, blocks shared by tasks %v; the test needs both", midItem, shared)
	}

	vgg11 := compileNet(t, model.VGG11(model.DefaultConfig()), true)
	want11 := fusable(vgg11)
	for _, name := range []string{"conv4_2", "conv5_2"} {
		li := slices.IndexFunc(vgg11.Net.Layers, func(l model.Layer) bool { return l.Name == name })
		if p := vgg11.Layers[li]; !want11[li] || len(p.TileSizes) < 2 {
			t.Fatalf("vgg11 %s: pool handed %v, %d tiles; the test needs a pooled layer of several tiles", name, want11[li], len(p.TileSizes))
		}
	}
	ins3, want3 := inputs(vgg11.Net, 3)
	for _, n := range []int{1, 3} {
		ins, want := ins3[:n], want3[:n]
		trs, pooled := walk(vgg11, ins, []int{0, len(vgg11.Net.Layers)}, forced{1, 0})
		check(vgg11.Net, trs, want, pooled, want11, fmt.Sprintf("vgg11 N=%d one window row a block", n))
	}

	mini := compileNet(t, model.MiniResNet18(model.DefaultConfig(), 32, 32), true)
	if slices.Contains(fusable(mini), true) {
		t.Fatal("miniresnet18's overlapping stem pool is handed to its conv")
	}
	ins, want := inputs(mini.Net, 3)
	trs, pooled := walk(mini, ins, []int{0, len(mini.Net.Layers)}, forced{})
	check(mini.Net, trs, want, pooled, make([]bool, len(mini.Net.Layers)), "miniresnet18 N=3")
}

// poolRows against tensor.MaxPoolInt's 2×2 stride-2 pool, each plane
// pooled in runs of whole window rows of random length, as the tasks of a
// layer pool their blocks.
func TestPoolRowsMatchesMaxPoolInt(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, hw := range [][2]int{{1, 1}, {2, 5}, {4, 3}, {6, 8}} {
		in := tensor.NewInt(tensor.Shape{N: 1, C: 3, H: 2 * hw[0], W: 2 * hw[1]})
		for i := range in.Data {
			in.Data[i] = rng.Int32N(31) - 15
		}
		want := tensor.MaxPoolInt(in, tensor.PoolSpec{K: 2, Stride: 2})
		got := tensor.NewInt(want.Shape)
		win := 2 * in.Shape.W // rows of one window row
		for p := 0; p < len(in.Data); {
			n := min(len(in.Data)-p, win*(1+rng.IntN(3)))
			poolRows(got.Data[p/4:][:n/4], in.Data[p:p+n], in.Shape.W)
			p += n
		}
		if !got.Equal(want) {
			t.Fatalf("on %v: poolRows != MaxPoolInt", in.Shape)
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
			if sh, err := LayerShape(c, 0, 1, runtime.GOMAXPROCS(0), true); err != nil || sh.Parts != 1 || sh.PerTask >= tc.strips {
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

// loadPathCases are single conv layers that take every way a task loads
// an input column (see TestRunConvBatchLoadPathsMatchForwardInt).
var loadPathCases = []struct {
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
}

// Every way a task's load list fills an input column, end to end against
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
	for _, tc := range loadPathCases {
		net := singleConvNet(7, tc.cin, tc.cout, tc.k, tc.s, tc.pad, tc.h, tc.sparsity)
		c := compileNet(t, net, true)
		plan, spec := c.Layers[0], net.Layers[0].ConvSpec()
		ctx := &convCtx{spec: spec}
		ctx.setTaps(net.InputShape, spec.OutShape(net.InputShape))
		derive, words, unbound := false, true, false
		for _, tap := range ctx.taps {
			derive = derive || tap.From >= 0
			words = words && (tap.From < 0 || tap.Shift%4 == 0)
		}
		// Every bound column whose tap has a bound source copies from it
		// when the shifts are whole words; the rest gather.
		for _, sp := range plan.StripPlans {
			for _, tp := range sp.Programs {
				virt := map[[2]int]int{}
				for v, bind := range tp.InputBindings {
					virt[bind] = v
				}
				ep, err := tp.ExecPlan()
				if err != nil {
					t.Fatal(err)
				}
				copies := map[ap.Slot]ap.Slot{}
				for v, bind := range tp.InputBindings {
					if from := ctx.taps[bind[1]].From; from >= 0 {
						src, ok := virt[[2]int{bind[0], from}]
						unbound = unbound || !ok
						if ok && words {
							copies[ep.Slot(v)] = ep.Slot(src)
						}
					}
				}
				ls, err := tp.Loads(1, ctx.taps, sp.Channels, ctx.plane)
				if err != nil {
					t.Fatal(err)
				}
				for _, ld := range ls[0].Loads {
					if src, ok := copies[ld.Col]; ok != (ld.Shift != 0) || ok && src != ld.Src {
						t.Fatalf("%s: column %+v copies from %+v (shift %d), want %+v (bound source %v)", tc.name, ld.Col, ld.Src, ld.Shift, src, ok)
					}
				}
			}
		}
		if derive != tc.derive || derive && (words != tc.words || tc.unbound && !unbound) {
			t.Fatalf("%s: derive %v, whole-word shifts %v, unbound sources %v; the case needs %v, %v, %v",
				tc.name, derive, words, unbound, tc.derive, tc.words, tc.unbound)
		}
		for _, n := range []int{1, 3, 8} {
			if sh, err := LayerShape(c, 0, n, runtime.GOMAXPROCS(0), true); err != nil {
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

// dirtyMachines leaves n machines of the engine's free list full of
// garbage: a larger plan's 64-bit lanes — random loads and their sums —
// in every word of an arena of 601 slots × 512 words, past the arena
// budget that bounds a task's, so no task that takes one grows a fresh,
// zeroed arena. Read as narrower lanes the words are neither zero nor
// valid lane values.
func dirtyMachines(t *testing.T, n int) {
	t.Helper()
	const ins, rows = 300, 512
	p := &ap.Program{Cols: []ap.Col{{Width: 1}}}
	for c := 1; c <= 2*ins; c++ {
		p.Cols = append(p.Cols, ap.Col{Width: 64})
		if c > ins {
			p.Instrs = append(p.Instrs, ap.Instr{Op: ap.OpAdd, Dst: c, A: c - ins, B: 1 + (c-ins)%ins, Width: 64})
		}
	}
	plan, err := ap.NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(uint64(n), 0xd1a7))
	src := make([]int32, rows)
	g := ap.Grid{W: rows, R1: 1, Hi: rows, Pitch: rows, Stride: 1}
	ms := make([]*ap.Machine, n)
	for i := range ms {
		ms[i] = getMachine()
		ms[i].Reset(plan, rows, nil)
		for c := 1; c <= ins; c++ {
			for r := range src {
				src[r] = int32(rng.Uint32())
			}
			ms[i].LoadRows(plan.Slot(c), 0, src, &g, 0, rows)
		}
		ms[i].Run()
	}
	for _, m := range ms {
		putMachine(m)
	}
}

// The loaders against arenas another plan left dirty: every layer of
// loadPathCases, and vgg9's conv3_2 — two strips, a 64-position plane —
// cut into four parts a task, each at N ∈ {1, 3, 8} on freshly dirtied
// machines, bit-exact against ForwardInt. A load that leaves a row of its
// range unwritten, or a column that Reset leaves to loads that never
// come, reads garbage.
func TestGarbageArenasMatchForwardInt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const dirty = 8 // machines: more than the tasks that run at once
	check := func(name string, c *core.Compiled, li int, exec func(ins, outs []*tensor.Int) error) {
		net := c.Net
		for _, n := range []int{1, 3, 8} {
			ins, want, outs := make([]*tensor.Int, n), make([]*tensor.Int, n), make([]*tensor.Int, n)
			for b := range ins {
				tr, err := net.ForwardInt(randInput(uint64(80*n+b), net.InputShape))
				if err != nil {
					t.Fatal(err)
				}
				ins[b], want[b] = tr.InputCodes, tr.Outputs[li]
				if in := net.Layers[li].Inputs[0]; in != model.InputRef {
					ins[b] = tr.Outputs[in]
				}
				outs[b] = tensor.NewInt(want[b].Shape)
			}
			dirtyMachines(t, dirty)
			if err := exec(ins, outs); err != nil {
				t.Fatal(err)
			}
			for b := range outs {
				if !outs[b].Equal(want[b]) {
					t.Fatalf("%s N=%d item %d: conv on dirty arenas != ForwardInt", name, n, b)
				}
			}
		}
	}
	for _, tc := range loadPathCases {
		c := compileNet(t, singleConvNet(7, tc.cin, tc.cout, tc.k, tc.s, tc.pad, tc.h, tc.sparsity), true)
		check(tc.name, c, 0, func(ins, outs []*tensor.Int) error { return RunConvBatchInto(c, 0, ins, outs) })
	}
	c := compileNet(t, model.VGG9(model.DefaultConfig()), true)
	li := slices.IndexFunc(c.Net.Layers, func(l model.Layer) bool { return l.Name == "conv3_2" })
	check("vgg9 conv3_2 in parts", c, li, func(ins, outs []*tensor.Int) error {
		plan := c.Layers[li]
		if len(plan.StripPlans) != 2 {
			t.Fatalf("conv3_2 compiled to %d strips; the test needs two", len(plan.StripPlans))
		}
		ctx := &convCtx{plan: plan, spec: c.Net.Layers[li].ConvSpec(), ins: ins, outs: outs}
		ctx.setTaps(ins[0].Shape, outs[0].Shape)
		sh, err := ctx.shape(li, len(ins)*plan.P, 1)
		if err != nil {
			return err
		}
		sh.Parts, sh.PerTask = 4, 1
		if err := ctx.cut(&sh); err != nil {
			return err
		}
		ctx.exec(sh)
		return nil
	})
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
	if ctx.taps[0].From < 0 || ctx.taps[0].Shift%4 != 0 {
		t.Fatal("the layer must derive with whole-word shifts: only the segment's first row may refuse")
	}
	ctx.list(1)
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
			sh, err := LayerShape(c, i, 8, workers, true)
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

// taskShape on the shapes the budget was taken on (vgg9, vgg11 and
// resnet18, 4 rows per word, 2 workers), and its invariants over a sweep.
// window is the rows of one row of the fused max-pool's windows: 2·W for
// a conv whose act feeds a 2×2 pool, 1 for the rest.
func TestTaskShape(t *testing.T) {
	for _, tc := range []struct {
		name                                           string
		rows, tiles, strips, chans, slots, ops, window int
		wantBlock, wantBlocks, wantPerTask             int
		wantParts                                      int
	}{
		// conv1_x at batch 1: a quarter of 1 024 rows is 64 words a
		// column, long enough to cut rows. conv1_1's 3 channels and 357
		// ops would lose more to four parts each accumulating 64 × 1 024
		// sums than rows lose to re-running them.
		{"vgg9 conv1_1 b1", 1024, 1, 1, 3, 104, 357, 1, 256, 4, 1, 1},
		{"vgg9 conv1_2 b1", 1024, 1, 1, 64, 656, 6304, 64, 256, 4, 1, 1},
		// From conv2_1 on, a row cut that feeds two workers leaves blocks
		// under four cache lines: each program runs in four parts over
		// every row instead, and runs each op once.
		{"vgg9 conv2_1 b1", 256, 1, 1, 64, 731, 11722, 1, 256, 1, 1, 4},
		{"vgg9 conv2_2 b1", 256, 1, 1, 128, 1308, 23627, 32, 256, 1, 1, 4},
		{"vgg9 conv3_1 b1", 64, 1, 1, 128, 1448, 44099, 1, 64, 1, 1, 4},
		// At batch 8 the arena would hold 512 rows; feeding two workers
		// cuts them in four, 32 words a column: rows, not parts.
		{"vgg9 conv3_1 b8", 512, 1, 1, 128, 1448, 44099, 1, 128, 4, 1, 1},
		// A table as wide as conv3_1's 16 329 columns: the budget cuts the
		// same rows in eight.
		{"vgg9 conv3_1 b8 by columns", 512, 1, 1, 128, 16329, 44099, 1, 64, 8, 1, 1},
		// Two strips and only one block: the strips split, then each
		// strip's program into two parts.
		{"vgg9 conv3_2 b1", 64, 1, 2, 128, 1451, 88113, 16, 64, 1, 1, 2},
		// One row: nothing to split but the strips.
		{"vgg9 fc1 b1", 1, 1, 4, 1024, 1281, 210598, 1, 4, 1, 1, 1},
		{"vgg9 fc2 b1", 1, 1, 4, 256, 321, 14056, 1, 4, 1, 4, 1},
		// The arena budget, not the worker count, sets the block: 1 366
		// rows, which whole words would make 1 368 and whole rows of
		// pool1's windows (64 rows) make 1 408, still in six blocks.
		{"vgg9 conv1_2 b8", 8192, 1, 1, 64, 656, 6304, 64, 1408, 6, 1, 1},
		{"vgg9 conv1_2 b8 by columns", 8192, 1, 1, 64, 3034, 6304, 1, 344, 24, 1, 1},
		// Windows of 64 rows round the same budget's 342 rows up to 384:
		// 22 blocks, each at most a window over the budget.
		{"vgg9 conv1_2 b8 by columns, pooled", 8192, 1, 1, 64, 3034, 6304, 64, 384, 22, 1, 1},
		// vgg11's last convs before a pool: a 4×4 and a 2×2 plane, whose
		// window rows (8 and 4 rows) are whole words. Under two cache
		// lines of lanes even at batch 8: one block, and the tiles'
		// strips split.
		{"vgg11 conv4_2 b1", 16, 2, 4, 128, 1552, 232480, 8, 16, 1, 2, 1},
		{"vgg11 conv4_2 b8", 128, 2, 4, 128, 1552, 232480, 8, 128, 1, 2, 1},
		{"vgg11 conv5_2 b1", 4, 2, 4, 128, 1553, 232242, 4, 4, 1, 2, 1},
		// 49 rows is under two cache lines of lanes: one block, and the two
		// tiles' strips split instead.
		{"resnet18 layer4 b1", 49, 2, 4, 128, 1550, 175383, 1, 52, 1, 2, 1},
	} {
		block, perTask, parts := taskShape(tc.rows, tc.tiles, tc.strips, tc.chans, tc.slots, tc.ops, 4, tc.window, 2)
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
			// Rows are whole items, and items whole window rows.
			for _, window := range []int{1, 4, 8, 9, 28, 64} {
				for rows := window; rows < 3000; rows += window * (1 + 37/window) {
					for _, chans := range []int{1, 2, 5, 64} {
						for _, slots := range []int{9, 300, 20000} {
							for _, ops := range []int{1, 19, 5000, 300000} {
								block, perTask, parts := taskShape(rows, tiles, strips, chans, slots, ops, lanes, window, workers)
								words, blocks := block/lanes, (rows+block-1)/block
								// unit is one window row in whole words.
								unit := lanes / gcd(lanes, window) * window
								switch {
								case block < 1 || block%lanes != 0:
									t.Fatalf("block of %d rows at %d rows per word", block, lanes)
								case block%window != 0 || (rows-(blocks-1)*block)%window != 0:
									t.Fatalf("rows %d: blocks of %d rows cut %d-row windows", rows, block, window)
								case (blocks-1)*block >= rows || blocks*block < rows:
									t.Fatalf("rows %d: %d blocks of %d rows", rows, blocks, block)
								case perTask < 1 || perTask > strips:
									t.Fatalf("%d strips per task of %d", perTask, strips)
								// Over the budget by at most a window row: one
								// word, as whole words alone allow, without one.
								case (block-unit)/lanes+1 >= 2*lineWords && slots*(block-unit)/lanes*8 > arenaBudget:
									t.Fatalf("rows %d slots %d window %d: %d-word blocks overflow the arena budget by more than a window", rows, slots, window, words)
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
									t.Fatalf("rows %d chans %d ops %d lanes %d window %d slots %d workers %d: %d blocks × %d parts feed %d of %d", rows, chans, ops, lanes, window, slots, workers, blocks, parts, blocks*strips*parts, want)
								}
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
		if sh, err := LayerShape(c, 0, tc.n, 2, true); err != nil || (sh.Parts > 1) != tc.parts {
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

// metricValue reads one runtime/metrics sample: a uint64 count of bytes,
// or a float64 of seconds.
func metricValue(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// A compiled network stays live as long as it is served, and its tile
// programs, plans, parts and load lists are held in pointer-free tables
// (ap.TestArtifactTablesPointerFree pins the element types): allocated
// as no-scan memory, they add almost nothing to the heap a GC cycle must
// scan — the collector's "/gc/scan/heap:bytes", the scan work of the
// last cycle. The bound is 2 bytes per plan op; a pointer or a string
// in Instr or Col reads ≈ 80 on vgg9.
func TestCompiledArtifactNotScanned(t *testing.T) {
	// vgg9 under -short too: its cold compile and run take ≈ 0.2 s, and
	// a smaller model's fixed headers (tinyresnet: 16 KB for 298 plan
	// ops) would swamp a per-op bound.
	const name = "vgg9"
	net := zooNet(t, name)
	in := []*tensor.Float{randInput(5, net.InputShape)}
	runtime.GC()
	before := metricValue("/gc/scan/heap:bytes").Uint64()
	c := compileNet(t, net, true)
	if _, err := ForwardAPBatch(c, in); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	grew := int64(metricValue("/gc/scan/heap:bytes").Uint64()) - int64(before)
	ops := 0
	for _, lp := range c.Layers {
		for _, sp := range lp.StripPlans {
			for _, tp := range sp.Programs {
				plan, err := tp.ExecPlan()
				if err != nil {
					t.Fatal(err)
				}
				ops += plan.Ops()
			}
		}
	}
	runtime.KeepAlive(c)
	t.Logf("%s: scannable heap grew %d bytes with the artifact live: %.3f bytes per plan op (%d ops)",
		name, grew, float64(grew)/float64(ops), ops)
	if grew > 2*int64(ops) {
		t.Errorf("%s: scannable heap grew %d bytes for %d plan ops, want at most 2 bytes an op", name, grew, ops)
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

// gcCPU is the runtime's estimate of the CPU time the garbage collector
// spent, marking and pauses, summed over every core; the runtime adds to
// it as each cycle ends.
const gcCPU = "/cpu/classes/gc/total:cpu-seconds"

// BenchmarkRunFunctional measures functional execution on the batched
// ExecPlan engine, batch 1 and, for vgg9, batch 8 (the gated engine_stream
// and engine_batch workloads of ./benchmark, here under -cpuprofile's
// reach); ns/infer divides by the batch, and so does gc-ms/infer, the
// collector's CPU time over the timed loop. resnet18 is the benchmark's
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
					gc := metricValue(gcCPU).Float64()
					for b.Loop() {
						if _, err := ForwardAPBatch(c, ins); err != nil {
							b.Fatal(err)
						}
					}
					gc = metricValue(gcCPU).Float64() - gc
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/infer")
					b.ReportMetric(gc*1e3/float64(b.N*n), "gc-ms/infer")
				})
			}
		})
	}
}

// BenchmarkRunConvBatch measures one conv layer's steady state at
// increasing batch sizes; ns/op is divided by the batch so the
// per-inference amortization is directly visible. The first conv of tinycnn and miniresnet18, and
// vgg9's conv3_2 — P 64, two strips, cut into parts at batch 1: the
// loads move 16 words a column — which runs only without -short (a
// CIFAR-scale compile).
func BenchmarkRunConvBatch(b *testing.B) {
	for _, tc := range []struct {
		net, layer string // layer "": the first
		batches    []int
	}{
		{"tinycnn", "", []int{1, 4, 8}},
		{"miniresnet18", "", []int{1, 4, 8}},
		{"vgg9", "conv3_2", []int{1, 8}},
	} {
		b.Run(strings.TrimSuffix(tc.net+"/"+tc.layer, "/"), func(b *testing.B) {
			if testing.Short() && tc.net == "vgg9" {
				b.Skip("CIFAR-scale compile")
			}
			net, c := benchNet(b, tc.net)
			li := 0
			for i, l := range net.Layers {
				if l.Name == tc.layer {
					li = i
				}
			}
			spec := c.Net.Layers[li].ConvSpec()
			for _, batch := range tc.batches {
				b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
					ins := make([]*tensor.Int, batch)
					outs := make([]*tensor.Int, batch)
					for i := range ins {
						tr, err := net.ForwardInt(randInput(uint64(i), net.InputShape))
						if err != nil {
							b.Fatal(err)
						}
						ins[i] = tr.InputCodes
						if in := net.Layers[li].Inputs[0]; in != model.InputRef {
							ins[i] = tr.Outputs[in]
						}
						outs[i] = tensor.NewInt(spec.OutShape(ins[i].Shape))
					}
					// One call before the timer lowers the programs and
					// builds the parts and load lists this shape runs.
					if err := RunConvBatchInto(c, li, ins, outs); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := RunConvBatchInto(c, li, ins, outs); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/infer")
				})
			}
		})
	}
}
