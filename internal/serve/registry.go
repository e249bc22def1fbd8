package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/dataflow"
	"rtmap/internal/dispatch"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/tensor"
)

// Spec identifies one model variant: a zoo entry plus the build
// parameters that change its weights or activation grid. For file-backed
// models the build parameters are recorded but inert — the weights and
// quantizers come from the file.
type Spec struct {
	Model    string
	ActBits  int
	Sparsity float64
	Seed     uint64
}

// Key is the canonical registry key of the spec.
func (s Spec) Key() string {
	return fmt.Sprintf("%s?bits=%d&sparsity=%g&seed=%d", s.Model, s.ActBits, s.Sparsity, s.Seed)
}

// zooEntry is one servable model architecture. Input shapes are recorded
// statically so /v1/models can report them without building weights.
type zooEntry struct {
	build func(model.Config) *model.Network
	shape tensor.Shape
}

// zoo lists the servable architectures (the paper's model zoo plus the
// small test networks).
var zoo = map[string]zooEntry{
	"tinycnn":    {model.TinyCNN, tensor.Shape{N: 1, C: 2, H: 8, W: 8}},
	"tinyresnet": {model.TinyResNet, tensor.Shape{N: 1, C: 3, H: 8, W: 8}},
	"vgg9":       {model.VGG9, tensor.Shape{N: 1, C: 3, H: 32, W: 32}},
	"vgg11":      {model.VGG11, tensor.Shape{N: 1, C: 3, H: 32, W: 32}},
	"resnet18":   {model.ResNet18, tensor.Shape{N: 1, C: 3, H: 224, W: 224}},
	"miniresnet18": {func(c model.Config) *model.Network { return model.MiniResNet18(c, 32, 32) },
		tensor.Shape{N: 1, C: 3, H: 32, W: 32}},
}

// ZooModels returns the servable architecture names, sorted.
func ZooModels() []string {
	out := make([]string, 0, len(zoo))
	for name := range zoo {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ZooShape returns the input shape of a zoo architecture.
func ZooShape(name string) (tensor.Shape, bool) {
	z, ok := zoo[name]
	return z.shape, ok
}

// badModelError marks an admission failure the client caused — a
// malformed model file, an invalid network definition — as opposed to an
// internal compiler fault. The HTTP layer maps it to 400.
type badModelError struct{ err error }

func (e *badModelError) Error() string { return e.err.Error() }
func (e *badModelError) Unwrap() error { return e.err }

// IsBadModel reports whether err stems from a client-supplied model
// definition (HTTP 400) rather than an internal failure (HTTP 500).
func IsBadModel(err error) bool {
	var bm *badModelError
	return errors.As(err, &bm)
}

// entry is one resident registry slot: a model variant, its compiled
// artifact, the analytic per-inference report the batch cost model prices
// from, and the micro-batcher feeding the device fleet.
type entry struct {
	spec Spec
	key  string

	// Written once inside Registry.admit and read by Get callers through
	// the sync.Once happens-before edge. Loaded/evictLocked, which race
	// with an in-progress admit, read comp/report/batcher only under the
	// owning registry's mu (admit publishes them under the same lock).
	once   sync.Once
	net    *model.Network
	comp   *core.Compiled
	report *sim.Report
	err    error

	// place is the entry's current fleet placement, published atomically
	// so the autoscaler can swap it under live traffic: a batch captures
	// the pointer at dispatch and keeps one consistent view (shard plan,
	// replicas, wear costs) for its whole flight, while failover re-reads
	// the current pointer so requeues land on post-rescale replicas.
	place atomic.Pointer[placement]

	// est tracks the measured per-item execution interval of this
	// entry's deployment (fed by the fleet after every batch). Admission
	// control prices queue delay from it; the autoscaler calibrates the
	// analytic cost model against it.
	est dispatch.DelayEstimator

	// layerWrites caches sim.LayerWrites(comp) so each new stage count
	// sums its per-stage wear costs without re-deriving the endurance model.
	layerWrites []float64

	// pipes memoizes the layer partition, its pipeline pricing and wear
	// costs per stage count: the autoscaler flips between stage counts
	// repeatedly and core.Partition is quadratic in layers.
	pipeMu sync.Mutex
	pipes  map[int]*pipePlan

	batcher *batcher

	// Guarded by the owning registry's mu.
	lastUsed int64
	evicted  bool
}

// placement is one immutable snapshot of how an entry occupies the
// fleet: its K-stage pipeline plan (K = 1, the whole model on one device,
// unless sharding was asked for) and the data-parallel replica placements
// (nil for unpinned whole-fleet dispatch). Registry.Rescale builds a fresh
// placement and swaps the entry's pointer; the structs themselves are
// never mutated after publication.
type placement struct {
	*pipePlan
	replicas []*replica
}

// placed returns the entry's current placement; admit stores one before
// the entry becomes reachable.
func (e *entry) placed() *placement { return e.place.Load() }

// stages returns the pipeline depth of the placement.
func (pl *placement) stages() int { return len(pl.shard.Stages) }

// config reports the placement as a scaler configuration.
func (pl *placement) config() dispatch.Config {
	return dispatch.Config{Replicas: max(1, len(pl.replicas)), Stages: pl.stages()}
}

// pipePlan is one memoized stage partition: the layer-range shard plan
// for a stage count, its pipeline pricing, and the per-sample write wear
// of each stage (the fleet meters cumulative device writes from it at
// each dispatch).
type pipePlan struct {
	shard       *core.ShardPlan
	pipeline    *sim.PipelineReport
	stageWrites []float64
}

// pipePlanFor returns the entry's memoized partition for k stages,
// computing it on first use. Requires a compiled entry (admit ran).
func (e *entry) pipePlanFor(k int) (*pipePlan, error) {
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	if pp, ok := e.pipes[k]; ok {
		return pp, nil
	}
	costs := make([]float64, len(e.report.Layers))
	for i, lr := range e.report.Layers {
		costs[i] = lr.LatencyNS
	}
	sp, err := core.Partition(e.comp, k, costs)
	if err != nil {
		return nil, err
	}
	pr, err := sim.AnalyzePipeline(e.comp, e.report, sp)
	if err != nil {
		return nil, err
	}
	pp := &pipePlan{shard: sp, pipeline: pr, stageWrites: make([]float64, len(sp.Stages))}
	for si, st := range sp.Stages {
		for _, w := range e.layerWrites[st.Lo:st.Hi] {
			pp.stageWrites[si] += w
		}
	}
	if e.pipes == nil {
		e.pipes = map[int]*pipePlan{}
	}
	e.pipes[k] = pp
	return pp, nil
}

// Registry resolves Specs to compiled models. Compilation happens on
// demand (deduplicated per key by sync.Once) through the configured
// core.Config — with the shared artifact cache wired in, re-admitting an
// evicted model reuses its lowered layers. Resident entries beyond
// MaxModels are evicted least-recently-used; an evicted entry's batcher
// drains its queued work before shutting down, so in-flight requests
// complete.
type Registry struct {
	compile     core.Config
	maxModels   int
	fleet       *Fleet
	batch       BatchOptions
	shardStages int
	replicas    int

	// pinned forces every admission onto pinned replica placements even
	// at one replica and one stage (where dispatch would otherwise go
	// unpinned across the whole fleet). The autoscaler needs it: replica
	// scaling only means something when the baseline is a placement it
	// can grow. Set by serve.New when Options.Autoscale is on.
	pinned bool

	// files maps file-backed model names to their JSON paths (the zoo
	// extension). Decoding happens at admit time, so a malformed file
	// surfaces as a badModelError on the request that admits it, never a
	// crash.
	files map[string]string

	// planVerify statically audits every compiled artifact before it is
	// placed on the fleet; nil selects core.VerifyCompiled. A failing
	// plan is a badModelError (HTTP 400) and the model is never loaded.
	// Tests inject failing verifiers here.
	planVerify func(*core.Compiled) error
	// dataflowVerify runs the whole-artifact dataflow verifier over an
	// admitted artifact, returning whether a stored PlanCertificate was
	// trusted (hit) instead of re-verifying. nil selects
	// dataflow.VerifyOrCertify against the registry's compile cache, so
	// re-admitting an evicted model skips the verification pass
	// entirely. Tests inject failing or counting verifiers here.
	dataflowVerify func(*core.Compiled) (bool, error)

	mu         sync.Mutex
	seq        int64
	entries    map[string]*entry
	fileShapes map[string]tensor.Shape // discovered on first successful admit
	closed     bool
}

// BatchOptions are the micro-batcher knobs shared by every model entry.
type BatchOptions struct {
	MaxBatch int           // batch size cap (1 disables coalescing)
	Window   time.Duration // cap on hold time while every device is busy
	Queue    int           // per-model intake capacity, in requests (groups of samples)
}

// NewRegistry returns an empty registry. The compile config is forced to
// retain programs (every inference replays them). Every model is admitted
// as a layer-range pipeline of shardStages stages (clamped to the live
// fleet size and the model's layer count, and to at least the one stage
// that holds the whole model), each stage of a deeper pipeline pinned to
// its own fleet device. replicas > 1 places
// that many independent copies of every model across the fleet (clamped
// to fleet capacity); batches balance across live replicas and fail over
// on device loss.
func NewRegistry(compile core.Config, maxModels int, fleet *Fleet, batch BatchOptions, shardStages, replicas int) *Registry {
	compile.KeepPrograms = true
	if maxModels <= 0 {
		maxModels = 4
	}
	if replicas < 1 {
		replicas = 1
	}
	return &Registry{
		compile:     compile,
		maxModels:   maxModels,
		fleet:       fleet,
		batch:       batch,
		shardStages: shardStages,
		replicas:    replicas,
		files:       map[string]string{},
		entries:     map[string]*entry{},
		fileShapes:  map[string]tensor.Shape{},
	}
}

// RegisterModelFile extends the servable zoo with a JSON model file
// (model.WriteJSON format). The file is decoded lazily at admission, so
// registration never fails — a malformed file fails the admitting
// request with a client error instead. Zoo names cannot be shadowed.
func (r *Registry) RegisterModelFile(name, path string) error {
	if _, ok := zoo[name]; ok {
		return fmt.Errorf("serve: model name %q shadows a built-in zoo entry", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files[name] = path
	return nil
}

// Knows reports whether name is servable: a zoo architecture or a
// registered model file.
func (r *Registry) Knows(name string) bool {
	if _, ok := zoo[name]; ok {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.files[name]
	return ok
}

// servable lists every admissible model name: the zoo plus the
// registered file-backed models.
func (r *Registry) servable() []string {
	out := ZooModels()
	r.mu.Lock()
	for name := range r.files {
		out = append(out, name)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// FileModelInfo describes one registered file-backed model. Shape is the
// input shape discovered at the first successful admission (zero before).
type FileModelInfo struct {
	Name  string
	Path  string
	Shape tensor.Shape
}

// FileModels lists the registered file-backed models, sorted by name.
func (r *Registry) FileModels() []FileModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FileModelInfo, 0, len(r.files))
	for name, path := range r.files {
		out = append(out, FileModelInfo{Name: name, Path: path, Shape: r.fileShapes[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get resolves spec to a ready entry, compiling it on first use and
// bumping its LRU stamp. The compile itself runs outside the registry
// lock, so a slow model admission does not stall traffic to resident
// models.
func (r *Registry) Get(spec Spec) (*entry, error) {
	if _, ok := zoo[spec.Model]; !ok {
		if !r.Knows(spec.Model) {
			return nil, fmt.Errorf("serve: unknown model %q (available: %v)", spec.Model, r.servable())
		}
		// File-backed weights are fixed, so the build parameters are
		// inert; normalize them to keep one file in one registry slot
		// regardless of what the request carried.
		spec.ActBits, spec.Sparsity, spec.Seed = 0, 0, 0
	}
	key := spec.Key()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	e, ok := r.entries[key]
	if !ok {
		e = &entry{spec: spec, key: key}
		r.entries[key] = e
		r.evictLocked(e)
	}
	r.seq++
	e.lastUsed = r.seq
	r.mu.Unlock()

	e.once.Do(func() { r.admit(e) })
	if e.err != nil {
		r.mu.Lock()
		if r.entries[key] == e {
			delete(r.entries, key) // failed admissions don't occupy a slot
		}
		r.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// admit builds and compiles the entry's network, places its replicas on
// the fleet, and attaches its batcher.
func (r *Registry) admit(e *entry) {
	// Cheap capacity gate before the expensive build+compile: with zero
	// live devices every placement (and every batch) is doomed, and
	// failed admissions are retried from scratch on the next request —
	// compiling first would amplify CPU exactly during an outage.
	if r.fleet.NumLive() == 0 {
		e.err = fmt.Errorf("serve: admitting %s: %w", e.key, errNoReplica)
		return
	}
	net, err := r.buildNet(e.spec)
	if err != nil {
		e.err = err
		return
	}
	comp, err := core.Compile(net, r.compile)
	if err != nil {
		e.err = fmt.Errorf("serve: compiling %s: %w", e.key, err)
		return
	}
	// Static plan verification gates admission: an artifact whose
	// execution plans fail the independent audit never reaches the fleet.
	// The failure classifies as a client-caused model problem (the model
	// definition lowered to an unsound plan), so the HTTP layer answers
	// 400 with the structured diagnostics rather than serving wrong bits.
	verifyPlans := r.planVerify
	if verifyPlans == nil {
		verifyPlans = core.VerifyCompiled
	}
	if err := verifyPlans(comp); err != nil {
		r.fleet.metrics.planVerifyFails.Inc()
		e.err = &badModelError{fmt.Errorf("serve: verifying %s: %w", e.key, err)}
		return
	}
	// Whole-artifact dataflow verification gates admission the same way,
	// but through the certificate cache: a content-addressed certificate
	// from an earlier admission of the identical artifact is trusted as
	// the proof, so only first-time admissions pay the verification pass.
	verifyDataflow := r.dataflowVerify
	if verifyDataflow == nil {
		verifyDataflow = func(c *core.Compiled) (bool, error) {
			_, hit, err := dataflow.VerifyOrCertify(c, r.compile.Cache)
			return hit, err
		}
	}
	hit, err := verifyDataflow(comp)
	if err != nil {
		r.fleet.metrics.dataflowVerifyFails.Inc()
		e.err = &badModelError{fmt.Errorf("serve: verifying %s dataflow: %w", e.key, err)}
		return
	}
	if hit {
		r.fleet.metrics.certHits.Inc()
	} else {
		r.fleet.metrics.certMisses.Inc()
	}
	e.net = net
	e.comp = comp
	e.report = sim.Analyze(comp)
	e.layerWrites = sim.LayerWrites(comp)
	pl, err := r.buildPlacement(e, dispatch.Config{Replicas: r.replicas, Stages: r.shardStages})
	if err != nil {
		e.err = fmt.Errorf("serve: placing %s: %w", e.key, err)
		return
	}
	e.place.Store(pl)
	b := newBatcher(e, r.fleet, r.batch)

	// Publish the batcher under the lock (Loaded/evictLocked may be
	// looking at this entry concurrently). An eviction that raced with
	// this compile leaves the entry out of the map; close the batcher so
	// queued submits fail fast and callers retry into a fresh slot.
	r.mu.Lock()
	e.batcher = b
	evicted := e.evicted || r.closed
	r.mu.Unlock()
	if evicted {
		b.close()
	}
}

// buildNet materializes the network for a spec: zoo entries build from
// the spec's parameters; file-backed entries decode their JSON file. A
// malformed file is a client error (HTTP 400), never a panic; an
// unreadable path is an operator-side fault and stays an internal error.
func (r *Registry) buildNet(spec Spec) (*model.Network, error) {
	if z, ok := zoo[spec.Model]; ok {
		cfg := model.Config{ActBits: spec.ActBits, Sparsity: spec.Sparsity, Seed: spec.Seed}
		return z.build(cfg), nil
	}
	r.mu.Lock()
	path, ok := r.files[spec.Model]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", spec.Model)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading model %q: %w", spec.Model, err)
	}
	net, err := model.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, &badModelError{fmt.Errorf("serve: decoding model %q from %s: %w", spec.Model, path, err)}
	}
	r.mu.Lock()
	r.fileShapes[spec.Model] = net.InputShape
	r.mu.Unlock()
	return net, nil
}

// buildPlacement realizes a (replicas, stages) configuration for a
// compiled entry: the pipeline plan (memoized per stage count) and the
// data-parallel replica placements. The stage count clamps to the live
// fleet size and the layer count, and is never below one; the replica
// count clamps to live-devices/stages so placements stay device-disjoint.
// One stage and one replica dispatch unpinned across the whole fleet —
// unless the registry runs pinned (autoscale mode), where even 1r×1s is a
// placement the scaler can grow.
func (r *Registry) buildPlacement(e *entry, cfg dispatch.Config) (*placement, error) {
	k := max(1, min(cfg.Stages, r.fleet.NumLive(), len(e.comp.Layers)))
	pp, err := e.pipePlanFor(k)
	if err != nil {
		return nil, err
	}
	pl := &placement{pipePlan: pp}
	if reps := max(1, cfg.Replicas); k > 1 || reps > 1 || r.pinned {
		pl.replicas = r.fleet.PinReplicas(reps, k)
		if len(pl.replicas) == 0 {
			// Same condition as a resident model with every replica dead, so
			// it classifies the same way (HTTP 503, not 500).
			return nil, fmt.Errorf("%w: fewer than %d live devices for one %d-stage placement",
				errNoReplica, k, k)
		}
	}
	return pl, nil
}

// Rescale rebuilds the entry's placement for cfg and publishes it
// atomically. In-flight batches finish on the placement they dispatched
// with; new dispatches and failover requeues pick up the fresh one.
// Returns the configuration actually applied, which may be smaller than
// asked — PinReplicas clamps to live fleet capacity.
func (r *Registry) Rescale(e *entry, cfg dispatch.Config) (dispatch.Config, error) {
	pl, err := r.buildPlacement(e, cfg)
	if err != nil {
		return dispatch.Config{}, err
	}
	e.place.Store(pl)
	r.fleet.wakeBatchers() // a held batch may have idle devices now
	return pl.config(), nil
}

// Entries snapshots the resident entries that are ready to serve
// (batcher published). The autoscaler iterates this each tick.
func (r *Registry) Entries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.batcher != nil {
			out = append(out, e)
		}
	}
	return out
}

// evictLocked drops least-recently-used entries (never `keep`) until the
// registry fits maxModels. Called with r.mu held.
func (r *Registry) evictLocked(keep *entry) {
	for len(r.entries) > r.maxModels {
		var victim *entry
		for _, e := range r.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.key)
		victim.evicted = true
		if victim.batcher != nil {
			// Close off-lock: close drains the victim's queue, which can
			// block until its in-flight batches dispatch.
			go victim.batcher.close()
		}
	}
}

// LoadedInfo describes one resident model for /v1/models.
type LoadedInfo struct {
	Key      string  `json:"key"`
	Model    string  `json:"model"`
	ActBits  int     `json:"act_bits"`
	Sparsity float64 `json:"sparsity"`
	Seed     uint64  `json:"seed"`
	Arrays   int     `json:"arrays"`
	// PerInferNS is the analytic single-inference latency (ns) of the
	// model on the simulated device.
	PerInferNS float64 `json:"sim_latency_ns"`
	// Stages, StageDevices and BottleneckNS report a pipeline deeper than
	// one stage: stage count, the device each stage of the first replica is
	// pinned to, and the simulated steady-state inter-sample interval.
	// Absent for one-stage models.
	Stages       int     `json:"stages,omitempty"`
	StageDevices []int   `json:"stage_devices,omitempty"`
	BottleneckNS float64 `json:"sim_bottleneck_ns,omitempty"`
	// Replicas describes the data-parallel placements: the device list of
	// each replica, its liveness, and how many batches it served. Absent
	// for unpinned models.
	Replicas       int     `json:"replicas,omitempty"`
	ReplicaDevices [][]int `json:"replica_devices,omitempty"`
	ReplicaLive    []bool  `json:"replica_live,omitempty"`
	ReplicaBatches []int64 `json:"replica_batches,omitempty"`
	// LiveReplicas is a pointer so replicated entries always emit it —
	// 0 is the all-replicas-dead state the health surface exists to
	// report — while unpinned models (which have no replicas to count)
	// omit it entirely.
	LiveReplicas *int `json:"live_replicas,omitempty"`
	// QueueDepth is the batcher's live backlog (items admitted but not
	// yet dispatched); QueueDelayEstMS prices that backlog with the
	// measured per-item interval — the figure admission control sheds on.
	QueueDepth      int64   `json:"queue_depth"`
	QueueDelayEstMS float64 `json:"queue_delay_est_ms"`
}

// Loaded snapshots the resident entries, most recently used first. The
// compiled fields are read under r.mu: admit publishes the batcher under
// the same lock after writing them, so a non-nil batcher means comp,
// report, and replicas are visible.
func (r *Registry) Loaded() []LoadedInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []LoadedInfo
	var used []int64
	for _, e := range r.entries {
		if e.batcher == nil { // still compiling
			continue
		}
		info := LoadedInfo{
			Key: e.key, Model: e.spec.Model, ActBits: e.spec.ActBits,
			Sparsity: e.spec.Sparsity, Seed: e.spec.Seed,
			Arrays: e.comp.PoolArrays, PerInferNS: e.report.TotalLatencyNS,
		}
		pl := e.placed()
		if k := pl.stages(); k > 1 {
			info.Stages = k
			info.BottleneckNS = pl.pipeline.BottleneckNS
			info.StageDevices = append([]int(nil), pl.replicas[0].devs...)
		}
		if len(pl.replicas) > 0 {
			info.Replicas = len(pl.replicas)
			live, batches := r.fleet.ReplicaStats(pl.replicas)
			info.ReplicaLive = live
			info.ReplicaBatches = batches
			for _, rep := range pl.replicas {
				info.ReplicaDevices = append(info.ReplicaDevices, append([]int(nil), rep.devs...))
			}
			n := 0
			for _, l := range live {
				if l {
					n++
				}
			}
			info.LiveReplicas = &n
		}
		info.QueueDepth = e.batcher.depth.Load()
		info.QueueDelayEstMS = float64(e.est.Estimate(int(info.QueueDepth)).Nanoseconds()) / 1e6
		out = append(out, info)
		used = append(used, e.lastUsed)
	}
	sort.Sort(&byRecency{out, used})
	return out
}

// byRecency sorts LoadedInfo rows by descending lastUsed stamp.
type byRecency struct {
	info []LoadedInfo
	used []int64
}

func (s *byRecency) Len() int           { return len(s.info) }
func (s *byRecency) Less(i, j int) bool { return s.used[i] > s.used[j] }
func (s *byRecency) Swap(i, j int) {
	s.info[i], s.info[j] = s.info[j], s.info[i]
	s.used[i], s.used[j] = s.used[j], s.used[i]
}

// Len returns the number of resident entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Close marks the registry draining and closes every batcher, blocking
// until all queued work has been handed to the fleet. Batcher pointers
// are snapshotted under r.mu; an admission still compiling has a nil
// batcher here and self-closes when it observes r.closed.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	bs := make([]*batcher, 0, len(r.entries))
	for _, e := range r.entries {
		if e.batcher != nil {
			bs = append(bs, e.batcher)
		}
	}
	r.mu.Unlock()
	for _, b := range bs {
		b.close()
	}
}
