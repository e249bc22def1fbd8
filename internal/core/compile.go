package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rtmap/internal/codegen"
	"rtmap/internal/dfg"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
	"rtmap/internal/ternary"
)

// actInfo describes the activation format flowing out of a layer.
type actInfo struct {
	Bits     int
	Unsigned bool
	Lo, Hi   int64
}

// activationOf resolves the activation format produced by layer idx
// (InputRef = network input), walking through shape-only layers.
func activationOf(net *model.Network, idx int) (actInfo, error) {
	if idx == model.InputRef {
		q := net.InputQ
		return actInfo{Bits: q.Bits, Unsigned: !q.Signed, Lo: int64(q.Qn()), Hi: int64(q.Qp())}, nil
	}
	l := &net.Layers[idx]
	switch l.Kind {
	case model.KindActQuant:
		q := l.Q
		lo := int64(q.Qn())
		if l.ReLU {
			lo = 0
		}
		return actInfo{Bits: q.Bits, Unsigned: !q.Signed || l.ReLU, Lo: lo, Hi: int64(q.Qp())}, nil
	case model.KindAdd:
		in, err := activationOf(net, l.Inputs[0])
		if err != nil {
			return actInfo{}, err
		}
		sum := actInfo{Lo: 2 * in.Lo, Hi: 2 * in.Hi}
		sum.Bits = dfg.SignedBits(sum.Lo, sum.Hi)
		sum.Unsigned = sum.Lo >= 0
		return sum, nil
	case model.KindMaxPool, model.KindFlatten, model.KindGlobalAvgPool:
		return activationOf(net, l.Inputs[0])
	}
	return actInfo{}, fmt.Errorf("core: layer %d (%s) does not produce a defined activation format", idx, l.Name)
}

// parallelFor runs f(i) for every i in [0, n) on up to `workers`
// goroutines (the calling goroutine included). Indices are handed out by
// an atomic counter, so load balances dynamically; callers must make f
// write results only into per-index slots to stay deterministic.
func parallelFor(n, workers int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// workers returns the lowering worker-pool size for this configuration.
func (cfg Config) workers() int {
	if !cfg.Parallel {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Compile lowers the network onto the RTM-AP accelerator.
//
// The flow has three stages. A sequential mapping stage sizes the shared
// array pool (Table II "#Arrays"). A per-layer lowering stage — pure:
// each layer's result depends only on that layer's weights, shapes,
// incoming activation format and the pool size — runs across a worker
// pool when cfg.Parallel is set; lowering is deterministic and
// order-independent, so the output is bit-identical to the serial path.
// A final sequential allocation pass assembles the plans in layer order.
func Compile(net *model.Network, cfg Config) (*Compiled, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Par.CAMRows == 0 {
		return nil, fmt.Errorf("core: zero-valued energy parameters; use DefaultConfig")
	}
	shapes := net.OutShapes(1)

	comp := &Compiled{Net: net, Cfg: cfg}

	// Mapping stage. Array pool: the widest layer's row groups.
	rows := cfg.Par.CAMRows
	for i := range net.Layers {
		l := &net.Layers[i]
		switch l.Kind {
		case model.KindConv, model.KindLinear, model.KindAdd, model.KindMaxPool:
			p := shapes[i].H * shapes[i].W
			if rg := (p + rows - 1) / rows; rg > comp.PoolArrays {
				comp.PoolArrays = rg
			}
		}
	}
	if comp.PoolArrays == 0 {
		comp.PoolArrays = 1
	}

	// Lowering stage: independent per layer. When the layers alone
	// saturate the cores, per-channel DFG construction inside each layer
	// stays serial; when the network has fewer layers than cores, the
	// leftover parallelism is applied within layers instead.
	total := cfg.workers()
	layerWorkers := min(total, len(net.Layers))
	innerCfg := cfg
	innerCfg.Parallel = cfg.Parallel && layerWorkers < total
	plans := make([]*LayerPlan, len(net.Layers))
	errs := make([]error, len(net.Layers))
	parallelFor(len(net.Layers), layerWorkers, func(i int) {
		plans[i], errs[i] = lowerLayer(net, shapes, i, innerCfg, comp.PoolArrays)
	})

	// Allocation pass: sequential, in layer order (also makes the first
	// error deterministic).
	for i := range plans {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: layer %d (%s): %w", i, net.Layers[i].Name, errs[i])
		}
		comp.Layers = append(comp.Layers, plans[i])
	}
	return comp, nil
}

// lowerLayer builds the plan of layer i. It reads only immutable network
// state (weights, shapes, quantizers), so calls for distinct layers are
// safe to run concurrently.
func lowerLayer(net *model.Network, shapes []tensor.Shape, i int, cfg Config, pool int) (*LayerPlan, error) {
	rows := cfg.Par.CAMRows
	l := &net.Layers[i]
	is := net.InputShape
	if idx := l.Inputs[0]; idx != model.InputRef {
		is = shapes[idx]
	}
	os := shapes[i]
	plan := &LayerPlan{
		Index: i, Name: l.Name, Kind: l.Kind,
		InC: is.C, InH: is.H, InW: is.W,
		OutC: os.C, OutH: os.H, OutW: os.W,
		P: os.H * os.W,
	}
	var err error
	switch l.Kind {
	case model.KindConv, model.KindLinear:
		plan.Class = ClassConv
		var ai actInfo
		ai, err = activationOf(net, l.Inputs[0])
		if err != nil {
			return nil, err
		}
		if cfg.Cache != nil {
			key := convKey(l, plan, ai, cfg, pool)
			if hit, ok := cfg.Cache.getPlan(key, i, l.Name); ok {
				return hit, nil
			}
			if err = compileConv(l, plan, cfg, ai, pool); err == nil {
				cfg.Cache.putPlan(key, plan)
			}
		} else {
			err = compileConv(l, plan, cfg, ai, pool)
		}
	case model.KindActQuant:
		plan.Class = ClassQuant
		plan.RequantElems = int64(plan.P) * int64(plan.OutC)
		plan.ActBits = l.Q.Bits
		plan.ActUnsigned = !l.Q.Signed || l.ReLU
	case model.KindAdd:
		plan.Class = ClassAdd
		var ai actInfo
		ai, err = activationOf(net, l.Inputs[0])
		plan.ActBits, plan.ActUnsigned = ai.Bits, ai.Unsigned
		width := ai.Bits + 1
		plan.RowGroups = (plan.P + rows - 1) / rows
		plan.ElemOps = int64(plan.OutC)
		plan.ElemBits = int64(plan.OutC) * int64(width)
		plan.LoadMoveBits = 2 * int64(plan.OutC) * int64(plan.P) * int64(ai.Bits)
		plan.LoadWriteBits = plan.LoadMoveBits
	case model.KindMaxPool:
		plan.Class = ClassPool
		var ai actInfo
		ai, err = activationOf(net, l.Inputs[0])
		plan.ActBits, plan.ActUnsigned = ai.Bits, ai.Unsigned
		plan.RowGroups = (plan.P + rows - 1) / rows
		win := int64(l.Pool.K * l.Pool.K)
		plan.PoolCmpOps = 2 * int64(plan.OutC) * (win - 1)
		plan.PoolCmpBits = plan.PoolCmpOps * int64(ai.Bits)
		plan.LoadMoveBits = int64(is.C) * int64(is.H) * int64(is.W) * int64(ai.Bits)
		plan.LoadWriteBits = int64(plan.OutC) * int64(plan.P) * win * int64(ai.Bits)
	case model.KindGlobalAvgPool:
		plan.Class = ClassGAP
		var ai actInfo
		ai, err = activationOf(net, l.Inputs[0])
		plan.ActBits, plan.ActUnsigned = ai.Bits, ai.Unsigned
		area := int64(is.H * is.W)
		plan.RowGroups = 1
		plan.ElemOps = int64(plan.OutC) * (area - 1)
		sumBits := dfg.SignedBits(ai.Lo*area, ai.Hi*area)
		plan.ElemBits = plan.ElemOps * int64(sumBits)
		plan.RequantElems = int64(plan.OutC) // peripheral divide
		plan.LoadMoveBits = int64(is.C) * area * int64(ai.Bits)
		plan.LoadWriteBits = plan.LoadMoveBits
	case model.KindFlatten:
		plan.Class = ClassFree
	default:
		err = fmt.Errorf("core: unsupported layer kind %v", l.Kind)
	}
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// compileConv plans and emits one conv/linear layer.
func compileConv(l *model.Layer, plan *LayerPlan, cfg Config, ai actInfo, pool int) error {
	par := cfg.Par
	w := l.W
	k := w.Fh * w.Fw
	plan.K = k
	plan.ActBits, plan.ActUnsigned = ai.Bits, ai.Unsigned
	plan.RowGroups = (plan.P + par.CAMRows - 1) / par.CAMRows
	maxReplicas := pool / plan.RowGroups
	if maxReplicas < 1 {
		maxReplicas = 1
	}
	// Every attempt and tile reads the same per-channel weight slices.
	chans := make([]ternary.Slice, w.Cin)
	for c := range chans {
		chans[c] = w.Slice(c)
	}

	// Emission is a function of the layout and the CSE cap, so a retry
	// whose wider temp pool lays the layer out as a failed attempt did,
	// under the same cap, would fail again exactly: it is skipped.
	tempBudget, defShift := baseTempBudget, 0
	var failed convLayout
	failedShift := 0
	var err error
	for attempt := 0; attempt <= 3; attempt++ {
		lay, lerr := layOutConv(l, plan, cfg, ai, tempBudget, maxReplicas)
		if lerr != nil {
			err = lerr
		} else if lay != failed || defShift != failedShift {
			if err = planAndEmitConv(l, plan, cfg, ai, chans, lay, defShift, pool); err == nil {
				return nil
			}
			failed, failedShift = lay, defShift
		}
		// Column pressure: widen the temp pool while the array holds it;
		// past that (one strip owns every free column) halve the CSE cap.
		if 2*tempBudget+k+tileFloor+1 < par.CAMCols {
			tempBudget *= 2
		} else {
			defShift++
		}
	}
	return err
}

// reduceMoveBudget caps inter-strip reduction traffic at this fraction of
// the estimated compute energy when the planner considers splitting
// channels across parallel strips.
const reduceMoveBudget = 0.25

// chooseStrips sweeps candidate strip counts and returns (planes, strips).
func chooseStrips(l *model.Layer, plan *LayerPlan, cfg Config, ai actInfo,
	g, planesCap, maxReplicas, tempBudget int) (int, int) {
	par := cfg.Par
	k := plan.K
	cin, cout := l.W.Cin, l.W.Cout
	nnz := l.W.NNZ()

	// Rough per-layer compute energy: every nonzero weight becomes one
	// add/sub of ~(actBits+3) bit passes across P rows.
	cInBit := 4*3*par.SearchPJPerBit + 4*2*0.25*par.WritePJPerBit
	estCompute := float64(plan.P) * float64(nnz) * float64(ai.Bits+3) * cInBit
	// Accumulator width guess for reduction traffic.
	perFilter := float64(nnz)/float64(cout) + 1
	accWGuess := ai.Bits + bitsFor(int64(perFilter*float64(ai.Hi))) + 1

	bestPlanes, bestStrips := 0, 0
	var bestScore float64
	for target := 1; target <= max(1, maxReplicas); target++ {
		chansPerStrip := (cin + target - 1) / target
		planes := (chansPerStrip + g - 1) / g
		if planes > planesCap {
			planes = planesCap
		}
		if planes < 1 {
			planes = 1
		}
		strips := (cin + planes*g - 1) / (planes * g)
		replicas := min(strips, maxReplicas)
		moveBits := float64(replicas-1) * float64(plan.P) * float64(cout) * float64(accWGuess)
		movePJ := moveBits * par.MovePJPerBit
		allowance := reduceMoveBudget * estCompute
		if par.MoveAllowancePJ > allowance {
			allowance = par.MoveAllowancePJ
		}
		if replicas > 1 && movePJ > allowance {
			continue
		}
		// Latency score: compute work divided by parallel strips, with a
		// mild penalty for the extra tiles smaller accumulator budgets
		// force (definitions are recomputed per tile).
		accSlots := max(1, par.DomainsPerTrack/accWGuess)
		availAcc := par.CAMCols - 1 - tempBudget - planes*k
		if availAcc < 1 {
			continue
		}
		accCols := min((cout+accSlots-1)/accSlots, availAcc)
		tile := min(accCols*accSlots, cout)
		tiles := (cout + tile - 1) / tile
		rounds := (strips + replicas - 1) / replicas
		score := float64(nnz) / float64(replicas) * float64(rounds) * (1 + 0.15*float64(tiles-1))
		if bestStrips == 0 || score < bestScore {
			bestScore, bestPlanes, bestStrips = score, planes, strips
		}
	}
	if bestStrips == 0 {
		// No candidate met the movement budget; fall back to maximum
		// residency (fewest strips).
		planes := (cin + g - 1) / g
		if planes > planesCap {
			planes = planesCap
		}
		bestPlanes = planes
		bestStrips = (cin + planes*g - 1) / (planes * g)
	}
	return bestPlanes, bestStrips
}

func bitsFor(v int64) int {
	b := 0
	for ; v > 0; v >>= 1 {
		b++
	}
	return b
}

// convLayout is how a conv layer occupies its arrays at one temp budget:
// input planes of g channel slots, strips (of which replicas run side by
// side), the accumulator width, and the column map [carry | inputs |
// accumulators | temps] with accCols accumulator columns of slots
// accumulators each, holding tile outputs.
type convLayout struct {
	g, planes, strips, replicas int
	accW, slots, accCols, tile  int
}

// layOutConv chooses the layout of a conv layer for a temp budget.
func layOutConv(l *model.Layer, plan *LayerPlan, cfg Config, ai actInfo, tempBudget, maxReplicas int) (convLayout, error) {
	par := cfg.Par
	w := l.W
	k := plan.K
	cout := w.Cout

	// Channel-to-domain packing: G channel slots per input plane.
	g := par.DomainsPerTrack / ai.Bits
	if g < 1 {
		return convLayout{}, fmt.Errorf("activation width %d exceeds nanowire domains", ai.Bits)
	}
	planesCap := (par.CAMCols - 1 - tempBudget - tileFloor) / k
	if planesCap < 1 {
		return convLayout{}, fmt.Errorf("patch size %d leaves no room for input planes (temp budget %d)", k, tempBudget)
	}
	// Strip-count selection is the latency/data-movement trade of §IV-B:
	// more parallel strips cut latency linearly but every extra strip adds
	// an inter-AP partial-sum reduction (P·Cout·accW bits over the
	// interconnect). We sweep the feasible strip counts and take the
	// fastest plan whose reduction traffic stays below a fixed fraction of
	// the layer's estimated compute energy — which is what keeps overall
	// movement near the 3% the paper reports (§V-C).
	planes, strips := chooseStrips(l, plan, cfg, ai, g, planesCap, maxReplicas, tempBudget)

	// Exact accumulator width from weight counts: row o's channel sum lies
	// in [pos·lo − neg·hi, pos·hi − neg·lo] over all input channels.
	accW := 1
	{
		kTot := w.Cin * k
		for o := 0; o < cout; o++ {
			pos, neg := 0, 0
			for _, v := range w.W[o*kTot : (o+1)*kTot] {
				switch {
				case v > 0:
					pos++
				case v < 0:
					neg++
				}
			}
			lo := int64(pos)*ai.Lo - int64(neg)*ai.Hi
			hi := int64(pos)*ai.Hi - int64(neg)*ai.Lo
			if b := dfg.SignedBits(lo, hi); b > accW {
				accW = b
			}
		}
	}
	if accW > par.DomainsPerTrack {
		return convLayout{}, fmt.Errorf("accumulator width %d exceeds %d domains", accW, par.DomainsPerTrack)
	}
	// Accumulators pack along nanowire domains (§III "true multi-bit
	// storage"): each accumulator column holds ⌊domains/accW⌋ partial sums,
	// at least one by the check above.
	slots := par.DomainsPerTrack / accW
	// Adaptive column split: accumulators take only the columns they need
	// (domain packing covers `slots` outputs per column); everything else
	// becomes temp space for CSE definitions and chains. tempBudget is the
	// floor reserved for temporaries (doubled on retry).
	availForAcc := par.CAMCols - 1 - planes*k - tempBudget
	if availForAcc < 1 {
		return convLayout{}, fmt.Errorf("no columns left for accumulators (planes=%d, temps=%d)", planes, tempBudget)
	}
	accColCount := min((cout+slots-1)/slots, availForAcc)
	return convLayout{
		g: g, planes: planes, strips: strips, replicas: min(strips, maxReplicas),
		accW: accW, slots: slots, accCols: accColCount, tile: min(accColCount*slots, cout),
	}, nil
}

// planAndEmitConv fills the layer plan for a layout and emits its tile
// programs from the layer's per-channel weight slices chans, with CSE
// definitions capped by the temp pool halved defShift times.
func planAndEmitConv(l *model.Layer, plan *LayerPlan, cfg Config, ai actInfo,
	chans []ternary.Slice, lay convLayout, defShift, maxPool int) error {
	par := cfg.Par
	w := l.W
	k := plan.K
	cin, cout := w.Cin, w.Cout
	g, planes, strips, replicas := lay.g, lay.planes, lay.strips, lay.replicas
	accW, slots, tile := lay.accW, lay.slots, lay.tile
	capacity := planes * g
	plan.Planes, plan.ChansPerPlane = planes, g
	plan.Strips, plan.Replicas = strips, replicas
	plan.LoadRounds = (strips + replicas - 1) / replicas
	plan.AccWidth = accW
	plan.TileSize = tile
	plan.Tiles = (cout + tile - 1) / tile
	// Output-channel tiles are independent (no cross-tile reduction), so
	// spare arrays run them in parallel — the paper's "multiple APs can be
	// used to meet the requirements of each layer".
	plan.OutGroups = maxPool / (plan.RowGroups * replicas)
	if plan.OutGroups > plan.Tiles {
		plan.OutGroups = plan.Tiles
	}
	if plan.OutGroups < 1 {
		plan.OutGroups = 1
	}

	// Physical column map: [carry | inputs | accumulators | temps].
	next := 0
	carryCol := next
	next++
	inputCols := make([][]int, planes)
	for p := range inputCols {
		inputCols[p] = make([]int, k)
		for i := range inputCols[p] {
			inputCols[p][i] = next
			next++
		}
	}
	accCols := make([]int, lay.accCols)
	for i := range accCols {
		accCols[i] = next
		next++
	}
	var tempCols []int
	for next < par.CAMCols {
		tempCols = append(tempCols, next)
		next++
	}

	// Resource-aware CSE: definitions live in temp columns for a whole
	// channel fragment, so their count is capped by the actual temp pool
	// (chains need a little headroom on top).
	// Definitions release their columns as soon as their last consumer
	// row folds (eager accumulates), so peak liveness is well below the
	// definition count; allow extraction past the pool size and let the
	// retry path widen the temp pool, or halve this cap (defShift), if a
	// layer's peak truly overflows.
	maxDefs := max(8, 2*(len(tempCols)-16)>>defShift)
	opt := dfg.Options{CSE: cfg.CSE, MaxDefs: maxDefs}
	plan.CG = codegen.Stats{}
	plan.NaiveOps = 0
	plan.StripPlans = nil
	plan.TileSizes = nil
	plan.ReduceOps, plan.ReduceBits, plan.ReduceMoveBits = 0, 0, 0

	if cfg.KeepPrograms {
		plan.StripPlans = make([]StripPlan, strips)
		for s := range plan.StripPlans {
			lo := s * capacity
			hi := lo + capacity
			if hi > cin {
				hi = cin
			}
			for c := lo; c < hi; c++ {
				plan.StripPlans[s].Channels = append(plan.StripPlans[s].Channels, c)
			}
		}
	}

	for t := 0; t < plan.Tiles; t++ {
		rowLo := t * tile
		rowHi := rowLo + tile
		if rowHi > cout {
			rowHi = cout
		}
		tsize := rowHi - rowLo
		plan.TileSizes = append(plan.TileSizes, tsize)

		for s := 0; s < strips; s++ {
			chLo := s * capacity
			chHi := chLo + capacity
			if chHi > cin {
				chHi = cin
			}
			// Build (in parallel) the slice DFGs of the strip's channels
			// for this tile. Strip by strip, an attempt whose temp pool
			// overflows fails before the later strips' graphs are built.
			graphs := make([]*dfg.Graph, chHi-chLo)
			parallelFor(len(graphs), cfg.workers(), func(i int) {
				gph := dfg.Build(chans[chLo+i].RowRange(rowLo, rowHi), opt)
				gph.AnnotateWidths(ai.Lo, ai.Hi)
				graphs[i] = gph
			})
			lay := codegen.Layout{
				K: k, ActBits: ai.Bits, ActUnsigned: ai.Unsigned,
				AccWidth: accW, TileSize: tsize, AccSlots: slots,
				Planes: planes, ChansPerPlane: g,
				InputCols: inputCols, AccCols: accCols[:(tsize+slots-1)/slots],
				CarryCol: carryCol, TempCols: tempCols,
				InputBase: 0, AccBase: 0, CarryBase: 0,
			}
			b, err := codegen.NewTileBuilder(lay)
			if err != nil {
				return err
			}
			b.Reserve(graphs)
			for i, gph := range graphs {
				if err := b.AddChannel(i, gph); err != nil {
					return fmt.Errorf("tile %d strip %d: %w", t, s, err)
				}
			}
			tp, err := b.Finish()
			if err != nil {
				return err
			}
			plan.CG.Add(tp.Stats)
			if cfg.KeepPrograms {
				plan.StripPlans[s].Programs = append(plan.StripPlans[s].Programs, tp)
			}
		}

		for c := 0; c < cin; c++ {
			if n := chans[c].RowRange(rowLo, rowHi).NNZ(); n > 0 {
				plan.NaiveOps += n - 1
			}
		}

		// Inter-strip adder tree for this tile.
		merges := replicas - 1
		plan.ReduceOps += merges * tsize
		plan.ReduceBits += merges * tsize * accW
		plan.ReduceMoveBits += int64(merges) * int64(plan.P) * int64(tsize) * int64(accW)
	}

	// Input staging (consumer-side accounting). Output-parallel array
	// groups each stage their own copy of the inputs.
	plan.LoadMoveBits = int64(plan.InC) * int64(plan.InH) * int64(plan.InW) * int64(ai.Bits)
	plan.LoadWriteBits = int64(cin) * int64(plan.P) * int64(k) * int64(ai.Bits) * int64(plan.OutGroups)
	return nil
}
