package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"rtmap"
	"rtmap/internal/core"
	"rtmap/internal/dataflow"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/tensor"
	"rtmap/internal/workload"
	"rtmap/internal/xbar"
)

// zoo are the model builders the workloads use. Weights stay the zoo's
// (model seed 1 unless a serving variant says otherwise); --seed drives
// inputs and request order only.
var zoo = map[string]func(model.Config) *model.Network{
	"resnet18": model.ResNet18,
	"vgg9":     model.VGG9,
	"tinycnn":  model.TinyCNN,
}

// artifact is a model built, cold-compiled and verified with every step
// timed: the compile side of set-up.
type artifact struct {
	net   *model.Network
	c     *core.Compiled
	cache *core.Cache // private, filled by the cold compile

	build, compile, audit, check time.Duration
}

func (a *artifact) total() time.Duration { return a.build + a.compile + a.audit + a.check }

// admit does what a cold admission does — build, compile against an
// empty private cache with programs kept, plan audit, dataflow check —
// one harness span per layer called.
func admit(rec *recorder, build func(model.Config) *model.Network) (*artifact, error) {
	a := &artifact{cache: core.NewCache()}
	a.build, _ = rec.timed("model.build", func() error {
		a.net = build(model.DefaultConfig())
		return nil
	})
	cfg := rtmap.CompileConfigWithCache(a.cache, false)
	cfg.KeepPrograms = true
	var err error
	if a.compile, err = rec.timed("core.compile", func() (err error) {
		a.c, err = rtmap.Compile(a.net, cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("compiling %s: %w", a.net.Name, err)
	}
	if a.audit, err = rec.timed("ap.audit", func() error { return core.VerifyCompiled(a.c) }); err != nil {
		return nil, fmt.Errorf("auditing plans of %s: %w", a.net.Name, err)
	}
	if a.check, err = rec.timed("dataflow.check", func() error {
		_, err := dataflow.Check(a.c)
		return err
	}); err != nil {
		return nil, fmt.Errorf("checking dataflow of %s: %w", a.net.Name, err)
	}
	return a, nil
}

// reportCompileSide fills the compile-side per-layer metrics: the timed
// admission steps plus a warm recompile, a certificate hit, the analytic
// models and the exact operation counts.
func (e *env) reportCompileSide(a *artifact, firstCall, inputs, oracle time.Duration, oracleRuns int) error {
	e.m.set("model.build_s", a.build.Seconds(), 1)
	e.m.set("core.compile_cold_s", a.compile.Seconds(), 1)
	e.m.set("ap.audit_s", a.audit.Seconds(), 1)
	e.m.set("dataflow.check_s", a.check.Seconds(), 1)
	e.m.set("sim.first_call_s", firstCall.Seconds(), 1)
	e.m.set("bench.inputs_s", inputs.Seconds(), 1)
	e.m.set("bench.oracle_s", oracle.Seconds(), oracleRuns)
	e.m.set("model.forward_int_ms", ms(oracle)/float64(max(oracleRuns, 1)), oracleRuns)

	warm, err := e.rec.timed("core.compile.warm", func() error {
		_, err := rtmap.Compile(a.net, a.c.Cfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("warm compile: %w", err)
	}
	e.m.set("core.compile_warm_s", warm.Seconds(), 1)
	st := a.cache.Stats()
	e.m.set("core.cache_hit_share", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)), st.Hits+st.Misses)
	e.m.set("core.addsub_ops", float64(a.c.TotalAddSub()), 1)
	e.m.set("core.cse_reduction", float64(a.c.TotalAddSub())/float64(max(a.c.TotalNaive(), 1)), 1)

	planOps := 0
	for _, lp := range a.c.Layers {
		for _, sp := range lp.StripPlans {
			for _, tp := range sp.Programs {
				plan, err := tp.ExecPlan()
				if err != nil {
					return fmt.Errorf("lowering a tile program of %s: %w", lp.Name, err)
				}
				planOps += plan.Ops()
			}
		}
	}
	e.m.set("ap.plan_ops", float64(planOps), 1)

	// The first VerifyOrCertify stores the certificate, the second is the
	// hit an admission of a known artifact pays.
	if _, _, err := dataflow.VerifyOrCertify(a.c, a.cache); err != nil {
		return fmt.Errorf("certifying %s: %w", a.net.Name, err)
	}
	certHit, err := e.rec.timed("dataflow.cert_hit", func() error {
		_, hit, err := dataflow.VerifyOrCertify(a.c, a.cache)
		if err == nil && !hit {
			err = fmt.Errorf("certificate of %s was not served from the cache", a.net.Name)
		}
		return err
	})
	if err != nil {
		return err
	}
	e.m.set("dataflow.cert_hit_ms", ms(certHit), 1)

	var rep *sim.Report
	analyze, _ := e.rec.timed("sim.analyze", func() error {
		rep = sim.Analyze(a.c)
		return nil
	})
	e.m.set("sim.analyze_ms", ms(analyze), 1)
	e.m.set("model_latency_ms", rep.LatencyMS(), 1)
	e.m.set("model_energy_uj", rep.EnergyUJ(), 1)
	e.m.set("xbar.energy_ratio", xbar.Analyze(a.net, xbar.Default(), 4).EnergyUJ()/rep.EnergyUJ(), 1)
	return nil
}

// admitReps is how often an engine run admits its model cold: the
// reported set-up takes the median admission at quiet pace, so one
// admission whose host factor the probes misjudged does not set it.
const admitReps = 3

// engine is one model admitted cold with a seeded input pool and the
// integer reference's verdict on each pooled input.
type engine struct {
	e *env
	a *artifact
	// admitS is what each of the reps cold admissions took at quiet pace;
	// a is the last.
	admitS []float64
	pool   []*tensor.Float
	refs   []reference
	// order picks the inputs of each call.
	order *rand.Rand

	inputsDur, oracleDur time.Duration
}

// newEngine makes the pool and its references first — outside setup_s,
// on a network built apart from the one that gets compiled — and then
// admits the model reps times, each time into an empty cache of its own,
// keeping the last artifact.
func newEngine(e *env, name string, poolSize, reps int) (*engine, error) {
	build := zoo[name]
	g := &engine{e: e, order: rand.New(rand.NewPCG(e.seed, 0x0eda))}
	t0 := time.Now()
	oracleNet := build(model.DefaultConfig())
	g.pool = workload.Inputs(oracleNet.InputShape, poolSize, e.seed)
	g.inputsDur = time.Since(t0)
	t0 = time.Now()
	var err error
	if g.refs, err = references(oracleNet, g.pool); err != nil {
		return nil, err
	}
	g.oracleDur = time.Since(t0)
	for range reps {
		g.a = nil // the one before is garbage now: at most one artifact is live
		before := probeBurst()
		if g.a, err = admit(e.rec, build); err != nil {
			return nil, err
		}
		g.admitS = append(g.admitS, g.a.total().Seconds()/hostFactor(before, probeBurst()))
	}
	return g, nil
}

// next picks the inputs of the next call: one pooled input for a stream,
// the pooled inputs in a fresh order for a batch.
func (g *engine) next(n int) []int {
	if n == 1 {
		return []int{g.order.IntN(len(g.pool))}
	}
	idx := make([]int, n)
	for i, j := range g.order.Perm(n) {
		idx[i] = j % len(g.pool)
	}
	return idx
}

// call runs one batch of pooled inputs through the engine and checks
// every result: all layers on request, logits always.
func (g *engine) call(idx []int, hook sim.LayerHook, allLayers bool) opSample {
	ins := make([]*tensor.Float, len(idx))
	for i, j := range idx {
		ins[i] = g.pool[j]
	}
	start := time.Now()
	var trs []*model.IntTrace
	var err error
	if hook == nil {
		trs, err = rtmap.RunFunctionalBatch(g.a.c, ins)
	} else {
		trs, err = sim.ForwardAPBatchHook(g.a.c, ins, hook)
	}
	end := time.Now()
	op := opSample{latency: end.Sub(start), failed: err != nil || len(trs) != len(idx)}
	for i := 0; !op.failed && i < len(idx); i++ {
		ref := g.refs[idx[i]]
		op.failed = !ref.matchLogits(trs[i].Logits().Data) || (allLayers && !ref.matchTrace(trs[i]))
	}
	op.spanID = g.e.rec.add(0, "sim.call", fmt.Sprintf("%s batch=%d", g.a.net.Name, len(idx)), start, end)
	return op
}

// steady is the engine's steady cost per inference at a batch size it
// has not run at yet: the first call pays arena growth and is returned
// apart; the median of the rest — at least three, however long a call
// takes — is the steady cost.
func (g *engine) steady(size int, d time.Duration) (perInferMS float64, calls int, first time.Duration) {
	op := g.call(g.next(size), nil, false)
	g.e.attempted++
	if op.failed {
		g.e.failed++
	}
	win := measure(1, d, size, false, func(deadline time.Time) []opSample {
		var ops []opSample
		for len(ops) < 3 || time.Now().Before(deadline) {
			ops = append(ops, g.call(g.next(size), nil, false))
		}
		return ops
	})
	g.e.count(win)
	return percentile(win.latMS, 50) / float64(size), win.n(), op.latency
}

// engineWorkload loops RunFunctionalBatch on one compiled artifact from
// a single caller: internal/sim and internal/ap do all the work.
type engineWorkload struct {
	model string
	batch int
	// headline, when set, names a second network the traced run records
	// per layer only: too heavy and too unsteady on this host to gate on.
	headline string
}

func (w engineWorkload) run(e *env) error {
	g, err := newEngine(e, w.model, max(w.batch, 2), admitReps)
	if err != nil {
		return err
	}
	e.selfTestOK = g.refs[0].checkFires()

	var first opSample
	firstQuiet, _ := atQuietPace(func() error {
		first = g.call(g.next(w.batch), nil, true)
		return nil
	})
	if first.failed {
		return fmt.Errorf("%s: first inference does not match the integer reference", w.model)
	}
	// Set-up: the median cold admission plus the first verified inference,
	// both at quiet pace.
	setup := time.Duration(median(g.admitS)*float64(time.Second)) + firstQuiet

	if !e.traced {
		loop := untilDeadline(func() opSample { return g.call(g.next(w.batch), nil, false) })
		loop(time.Now().Add(e.warmLen()))
		return e.reportEndToEnd(setup, admitReps, measure(e.sliceCount(), e.sliceLen(), w.batch, false, loop), true)
	}

	if err := e.reportCompileSide(g.a, first.latency, g.inputsDur, g.oracleDur, len(g.pool)); err != nil {
		return err
	}
	peaks := startPeakSampler()
	w.tracedLeg(g)
	if w.headline != "" {
		if err := headlineLeg(e, w.headline); err != nil {
			return err
		}
	}
	peaks.report(e.m)
	return nil
}

// tracedLeg takes the engine's per-layer numbers: LayerHook calls at the
// workload's batch size, then a few calls at the other size so that
// sim.batch_gain is seen from both workloads.
func (w engineWorkload) tracedLeg(g *engine) {
	e, layers := g.e, g.a.net.Layers
	layerNS := make([]int64, len(layers))
	type layerSpan struct {
		layer int
		interval
	}
	var hooked []layerSpan // this call's layers, hung under the call span once it has an ID
	hook := func(layer int, _ string, startNS, durNS int64) {
		layerNS[layer] += durNS
		hooked = append(hooked, layerSpan{layer, interval{startNS, startNS + durNS}})
	}
	win := measure(1, e.share(0.45), w.batch, false, untilDeadline(func() opSample {
		hooked = hooked[:0]
		op := g.call(g.next(w.batch), hook, false)
		for _, ls := range hooked {
			e.rec.addNS(op.spanID, "sim.layer", layers[ls.layer].Name, ls.start, ls.end)
		}
		return op
	}))
	e.reportClientLayer(win)
	infers := float64(max(win.infers(), 1))

	wallMS := 0.0
	for _, l := range win.latMS {
		wallMS += l
	}
	var conv, other, top int64
	for i, ns := range layerNS {
		if k := layers[i].Kind; k == model.KindConv || k == model.KindLinear {
			conv += ns
		} else {
			other += ns
		}
		top = max(top, ns)
	}
	e.m.set("sim.conv_ms_per_infer", float64(conv)/1e6/infers, win.n())
	e.m.set("sim.other_ms_per_infer", float64(other)/1e6/infers, win.n())
	e.m.set("sim.top_layer_share", float64(top)/float64(max(conv+other, 1)), win.n())
	e.m.set("sim.hook_coverage", float64(conv+other)/1e6/max(wallMS, 1e-6), win.n())
	e.m.set("sim.allocs_per_infer", float64(win.slices[0].mallocs)/infers, win.n())

	otherSize := 8
	if w.batch == 8 {
		otherSize = 1
	}
	otherMS, otherCalls, _ := g.steady(otherSize, e.share(0.2))
	perInfer := map[int]float64{w.batch: percentile(win.latMS, 50) / float64(w.batch), otherSize: otherMS}
	samples := map[int]int{w.batch: win.n(), otherSize: otherCalls}
	e.m.set("sim.ms_per_infer_b1", perInfer[1], samples[1])
	e.m.set("sim.ms_per_infer_b8", perInfer[8], samples[8])
	e.m.set("sim.batch_gain", perInfer[1]/perInfer[8], min(samples[1], samples[8]))
	e.m.set("sim.host_ns_per_addsub", perInfer[w.batch]*1e6/e.m.get("core.addsub_ops"), win.n())
	e.m.set("sim.host_per_modeled", perInfer[w.batch]/e.m.get("model_latency_ms"), win.n())
}

// headlineLeg records the paper's headline network — resnet18, whose
// working set is far beyond the last-level cache — per layer: cold
// admission, then the steady cost per inference as a stream and as a
// batch of 8. ROADMAP item 2's claims are about these numbers.
func headlineLeg(e *env, name string) error {
	g, err := newEngine(e, name, 2, 1)
	if err != nil {
		return err
	}
	b1, n1, _ := g.steady(1, e.share(0.1))
	b8, n8, firstB8 := g.steady(8, e.share(0.1))
	e.m.set(name+".admit_cold_s", g.a.total().Seconds(), 1)
	e.m.set(name+".ms_per_infer_b1", b1, n1)
	e.m.set(name+".ms_per_infer_b8", b8, n8)
	e.m.set(name+".batch_gain", b1/b8, min(n1, n8))
	e.m.set(name+".first_call_b8_s", firstB8.Seconds(), 1)
	return nil
}
