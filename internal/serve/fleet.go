package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/energy"
	"rtmap/internal/metrics"
	"rtmap/internal/sim"
	"rtmap/internal/trace"
)

// BatchInfo is the per-batch accounting attached to every result: which
// simulated device ran the batch, how large it was, how long the item
// waited in queues (wall time), and what the batch cost on the simulated
// hardware (the sum of the per-stage sim.AnalyzeStageBatch prices — for
// the default one-stage pipeline, exactly sim.AnalyzeBatch's
// pipelined-load pricing).
type BatchInfo struct {
	Device int `json:"device"`
	Size   int `json:"size"`
	// Replica is the data-parallel replica that served the batch; -1 for
	// models dispatched unpinned across the whole fleet.
	Replica int `json:"replica"`
	// Requeues counts device-failure failovers this batch survived before
	// completing. Zero on the happy path.
	Requeues int `json:"requeues,omitempty"`
	// QueueWallNS is the wall-clock time from enqueue to the start of the
	// first stage.
	QueueWallNS int64 `json:"queue_wall_ns"`
	// SimLatencyNS is the simulated device latency of the whole batch;
	// SimPerSampleNS is the amortized per-sample share.
	SimLatencyNS   float64 `json:"sim_latency_ns"`
	SimPerSampleNS float64 `json:"sim_per_sample_ns"`
	SimEnergyPJ    float64 `json:"sim_energy_pj"`
	// Stages and Path report a pipeline deeper than one stage: the stage
	// count and the device each stage ran on. Absent at one stage, where
	// Device says it all.
	Stages int   `json:"stages,omitempty"`
	Path   []int `json:"path,omitempty"`
}

// replica is one independent placement of a model across the fleet: one
// device per pipeline stage. Placements of the same entry are
// device-disjoint, so one device failure kills at most one replica. devs
// is immutable after admission; batches is guarded by Fleet.mu.
type replica struct {
	id      int
	devs    []int
	batches int64
}

// apBatch is one dispatched unit of work: a model entry plus the items
// coalesced for it. A batch traverses the fleet stage by stage, carrying
// its per-item pipeline state. A batch that reaches a dead device is
// requeued onto a surviving replica (bounded attempts); done tracks which
// items already received a result (see deliver).
type apBatch struct {
	e     *entry
	items []*item
	done  []bool
	// closed is the formation rule that closed the batch (the wait span's
	// detail); empty for work submitted to the fleet directly.
	closed string
	// pl is the entry placement captured at dispatch: the batch keeps
	// one consistent view of shard plan, replicas, and wear costs even
	// if the autoscaler swaps the entry's placement mid-flight. Failover
	// refreshes it (see requeue), so retries land on current replicas.
	pl *placement

	// Placement: the replica serving this attempt and its device list
	// (one per stage). replica is -1 and devs nil for unpinned dispatch.
	replica  int
	devs     []int
	attempts int

	// Pipeline state.
	stage   int
	runs    []*sim.ShardRun
	path    []int
	simNS   float64
	simPJ   float64
	started time.Time // execution start of stage 0

	// hop is stamped by forward so the next stage can attribute the
	// inter-stage transfer wall time; execNS accumulates execution wall
	// time across stages for the per-item phase decomposition.
	hop    time.Time
	execNS int64
}

// newAPBatch wraps coalesced items into a dispatchable batch,
// capturing the entry's current placement.
func newAPBatch(e *entry, items []*item) *apBatch {
	return &apBatch{e: e, items: items, done: make([]bool, len(items)), replica: -1, pl: e.placed()}
}

// deliver hands item i its result: the one place an item of a batch is
// answered. An item is answered once — a second send would block a
// device goroutine forever on the capacity-1 channel — so a repeat is an
// internal invariant violation, not an error.
func (b *apBatch) deliver(i int, res itemResult) {
	if b.done[i] {
		panic(fmt.Sprintf("serve: item %d of a %d-item batch delivered twice", i, len(b.items)))
	}
	b.done[i] = true
	b.items[i].res <- res
}

// firstTraced reports whether item i is the first item carrying its
// trace ID in the batch. Span emission dedupes on it: a multi-sample
// request contributes one span per event rather than one per sample, so
// a trace's phase durations stay comparable to its wall time. Batches
// are small (MaxBatch-bounded), so the scan beats a map.
func (b *apBatch) firstTraced(i int) bool {
	it := b.items[i]
	if it.trace == "" {
		return false
	}
	for j := 0; j < i; j++ {
		if b.items[j].trace == it.trace {
			return false
		}
	}
	return true
}

// device is one simulated AP array pool. Batches assigned to it execute
// serially on its goroutine (genuine queueing), and its simulated clock
// accumulates the priced latency of everything it ran. A dead device's
// goroutine stays up to drain its queue: every batch it receives after
// the failure mark is requeued instead of executed.
type device struct {
	id      int
	ch      chan *apBatch
	queued  int          // guarded by Fleet.mu
	busyNS  float64      // guarded by Fleet.mu
	batches int64        // guarded by Fleet.mu
	meter   energy.Meter // modeled energy/wear spent; guarded by Fleet.mu
	dead    bool         // guarded by Fleet.mu; set by FailDevice
}

// Fleet is the device-fleet scheduler: N simulated AP devices with
// per-device queues. Submit places a batch on a device, blocking when
// that device's queue is full:
//
//   - pinned entries pick the least-loaded live replica and go to its
//     first device, then hop device to device through the replica's
//     remaining stages (none, for the default one-stage pipeline);
//   - unpinned entries go to the live device with the fewest outstanding
//     batches (ties to the least simulated busy time).
type Fleet struct {
	// metrics is the node's instrument set; the batchers and the model
	// registry observe through it too.
	metrics *Metrics
	// tracer, when non-nil, receives spans for items carrying a trace ID
	// (set once by serve.New before traffic; a bare Fleet works without).
	tracer *trace.Tracer

	// WallScale dilates simulated device latency into wall time (set
	// once before traffic, like tracer): each batch or pipeline stage
	// occupies its device for at least WallScale × the cost model's
	// latency estimate. Zero disables dilation. See Options.WallScale.
	WallScale float64

	mu      sync.Mutex // guards device counters, replica counters, pending
	cond    *sync.Cond // signalled when pending drops
	pending int        // batches admitted but not yet retired
	devices []*device
	wg      sync.WaitGroup

	// wakers are the batchers holding a batch behind busy devices, each
	// registered by idleOrWake and signalled (then forgotten) when a
	// device frees or the set of live devices changes. Guarded by mu.
	wakers []chan struct{}

	// devScratch and repScratch are reusable load-snapshot buffers for
	// the dispatch policy functions, guarded by mu like the counters
	// they snapshot, so the per-batch placement path stays allocation-
	// free.
	devScratch []dispatch.DeviceLoad
	repScratch []dispatch.ReplicaLoad

	// closeMu orders Submit's channel sends against Close closing the
	// device channels: senders hold the read side across the send, so
	// Close (write side) cannot observe a drained fleet under an
	// in-flight send.
	closeMu sync.RWMutex
	closed  bool
}

// NewFleet starts n device goroutines with per-device queues of depth
// queueCap. A nil m (a bare Fleet, outside a Server) observes into a
// private registry nobody scrapes.
func NewFleet(n, queueCap int, m *Metrics) *Fleet {
	if n <= 0 {
		n = 1
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	if m == nil {
		m = NewMetrics(new(metrics.Registry), n)
	}
	f := &Fleet{metrics: m}
	f.cond = sync.NewCond(&f.mu)
	for i := 0; i < n; i++ {
		d := &device{id: i, ch: make(chan *apBatch, queueCap)}
		f.devices = append(f.devices, d)
		f.wg.Add(1)
		go f.run(d)
	}
	return f
}

// NumDevices returns the fleet size (dead devices included).
func (f *Fleet) NumDevices() int { return len(f.devices) }

// NumLive returns the number of devices not marked dead.
func (f *Fleet) NumLive() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, d := range f.devices {
		if !d.dead {
			n++
		}
	}
	return n
}

// PinReplicas assigns up to r device-disjoint placements of s devices
// each, least-loaded live devices first. Disjointness makes failover
// meaningful (one device failure kills at most one replica) and, within a
// placement, keeps a sharded model's stage graph acyclic. r clamps to
// NumLive/s; nil is returned when fewer than s devices are alive.
func (f *Fleet) PinReplicas(r, s int) []*replica {
	if r < 1 {
		r = 1
	}
	if s < 1 {
		s = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	order := dispatch.PlacementOrder(f.deviceLoadsLocked())
	if maxR := len(order) / s; r > maxR {
		r = maxR
	}
	reps := make([]*replica, 0, r)
	for i := 0; i < r; i++ {
		reps = append(reps, &replica{id: i, devs: append([]int(nil), order[i*s:(i+1)*s]...)})
	}
	return reps
}

// replicaLiveLocked reports whether every device of the placement is
// alive. Called with f.mu held.
func (f *Fleet) replicaLiveLocked(rep *replica) bool {
	for _, id := range rep.devs {
		if f.devices[id].dead {
			return false
		}
	}
	return true
}

// ReplicaStats snapshots liveness and dispatch counts of an entry's
// placements (/v1/models health reporting).
func (f *Fleet) ReplicaStats(reps []*replica) (live []bool, batches []int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rep := range reps {
		live = append(live, f.replicaLiveLocked(rep))
		batches = append(batches, rep.batches)
	}
	return live, batches
}

// deviceLoadsLocked snapshots per-device load for the dispatch policy
// functions, reusing the fleet's scratch buffer. Called with f.mu held.
func (f *Fleet) deviceLoadsLocked() []dispatch.DeviceLoad {
	if cap(f.devScratch) < len(f.devices) {
		f.devScratch = make([]dispatch.DeviceLoad, len(f.devices))
	}
	loads := f.devScratch[:len(f.devices)]
	for i, d := range f.devices {
		loads[i] = dispatch.DeviceLoad{Queued: d.queued, BusyNS: d.busyNS, Dead: d.dead}
	}
	return loads
}

// placeLocked routes a batch to its target device and records the
// chosen replica on the batch, delegating the policy to the dispatch
// package: replicated entries via dispatch.PickReplica (least head-load
// with a round-robin tilt), unpinned entries via dispatch.LeastLoaded.
// Returns false when nothing is alive to run the batch. Called with
// f.mu held.
func (f *Fleet) placeLocked(b *apBatch) (*device, bool) {
	if reps := b.pl.replicas; len(reps) > 0 {
		if cap(f.repScratch) < len(reps) {
			f.repScratch = make([]dispatch.ReplicaLoad, len(reps))
		}
		loads := f.repScratch[:len(reps)]
		for i, rep := range reps {
			head := f.devices[rep.devs[0]]
			loads[i] = dispatch.ReplicaLoad{
				Head:    dispatch.DeviceLoad{Queued: head.queued, BusyNS: head.busyNS, Dead: head.dead},
				Batches: rep.batches,
				Live:    f.replicaLiveLocked(rep),
			}
		}
		pick := dispatch.PickReplica(loads)
		if pick < 0 {
			return nil, false
		}
		best := reps[pick]
		best.batches++
		b.replica = best.id
		b.devs = best.devs
		return f.devices[best.devs[0]], true
	}
	pick := dispatch.LeastLoaded(f.deviceLoadsLocked())
	if pick < 0 {
		return nil, false
	}
	b.replica, b.devs = -1, nil
	return f.devices[pick], true
}

// idleOrWake reports whether a batch dispatched to pl now would start
// executing at once: some live replica's head device (unpinned: any live
// device) has nothing queued. It also answers true when nothing is
// alive, so a doomed batch still reaches Submit and fails fast with
// errNoReplica. A false answer registers wake (capacity 1) to be
// signalled when a device retires its last queued batch. Check and
// registration share one hold of f.mu, and queued only changes under
// f.mu, so the wake-up cannot be lost: a device that frees does so
// either before the check, which then sees it, or after the
// registration, which it then fires.
func (f *Fleet) idleOrWake(pl *placement, wake chan struct{}) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	alive := false
	if len(pl.replicas) > 0 {
		for _, rep := range pl.replicas {
			if !f.replicaLiveLocked(rep) {
				continue
			}
			if f.devices[rep.devs[0]].queued == 0 {
				return true
			}
			alive = true
		}
	} else {
		for _, d := range f.devices {
			if d.dead {
				continue
			}
			if d.queued == 0 {
				return true
			}
			alive = true
		}
	}
	if !alive {
		return true
	}
	if !slices.Contains(f.wakers, wake) {
		f.wakers = append(f.wakers, wake)
	}
	return false
}

// wakeBatchers makes every registered batcher re-check its placement;
// for changes other than a device freeing (a device died, a placement
// was rescaled onto other devices).
func (f *Fleet) wakeBatchers() {
	f.mu.Lock()
	wakers := f.wakers
	f.wakers = nil
	f.mu.Unlock()
	signal(wakers)
}

// signal fires wake-ups without blocking (each has capacity 1, and one
// pending signal is as good as two). Called without f.mu.
func signal(wakers []chan struct{}) {
	for _, w := range wakers {
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

// Submit schedules the batch onto the fleet. Batches arriving after Close
// (an evicted model's batcher draining late) fail their items with
// errClosed instead of executing; batches with no live replica fail with
// errNoReplica.
func (f *Fleet) Submit(b *apBatch) {
	f.closeMu.RLock()
	defer f.closeMu.RUnlock()
	if f.closed {
		fail(b, errClosed)
		return
	}
	f.mu.Lock()
	d, ok := f.placeLocked(b)
	if !ok {
		f.mu.Unlock()
		fail(b, errNoReplica)
		return
	}
	d.queued++
	f.pending++
	f.mu.Unlock()
	d.ch <- b
}

// forward hands a batch to its next stage's device. The pending count
// is bumped before this batch's current execution retires, so the
// fleet never looks drained with a hop in flight; the send runs on its
// own goroutine so a device goroutine never blocks on another device's
// full queue (queues of different models may point at each other).
func (f *Fleet) forward(dev int, b *apBatch) {
	d := f.devices[dev]
	b.hop = time.Now()
	f.mu.Lock()
	d.queued++
	f.pending++
	f.mu.Unlock()
	go func() { d.ch <- b }()
}

// dispatchOf returns when the item's batch was handed to the fleet,
// falling back to the enqueue stamp for work submitted directly
// (benchmarks and tests that bypass the batcher).
func dispatchOf(it *item) time.Time {
	if it.dispatch.IsZero() {
		return it.enq
	}
	return it.dispatch
}

// itemSpan emits one span for a traced item; a nil tracer or an
// untraced item costs one branch.
func (f *Fleet) itemSpan(it *item, b *apBatch, name string, dev, stage int, start time.Time, dur time.Duration, detail string) {
	if f.tracer == nil || it.trace == "" {
		return
	}
	f.tracer.Record(trace.Span{
		TraceID: it.trace, Name: name, Model: b.e.spec.Model,
		Device: dev, Replica: b.replica, Stage: stage, Batch: len(b.items),
		Start: start.UnixNano(), Dur: dur.Nanoseconds(), Detail: detail,
	})
}

// waitQueueSpans emits the wait (enqueue→dispatch) and queue
// (dispatch→execution start) spans for every live traced item of a
// batch about to execute. A requeued batch re-enters the queue, so its
// second queue span overlaps the first attempt's execution — the
// overlap is the failover cost, worth seeing.
func (f *Fleet) waitQueueSpans(b *apBatch, dev int, start time.Time) {
	if f.tracer == nil {
		return
	}
	for i, it := range b.items {
		if b.done[i] || !b.firstTraced(i) {
			continue
		}
		disp := dispatchOf(it)
		f.itemSpan(it, b, "wait", -1, -1, it.enq, disp.Sub(it.enq), b.closed)
		f.itemSpan(it, b, "queue", dev, -1, disp, start.Sub(disp), "")
	}
}

// layerHook builds the sampled per-layer span hook for a batch when a
// live item asked for layer attribution; nil otherwise, which the
// engine turns into zero overhead.
func (f *Fleet) layerHook(b *apBatch, dev, stage int) sim.LayerHook {
	if f.tracer == nil {
		return nil
	}
	for i, it := range b.items {
		if !b.done[i] && it.trace != "" && it.layers {
			tid := it.trace
			return func(layer int, name string, startNS, durNS int64) {
				f.tracer.Record(trace.Span{
					TraceID: tid, Name: "layer", Model: b.e.spec.Model,
					Device: dev, Replica: b.replica, Stage: stage, Batch: len(b.items),
					Start: startNS, Dur: durNS, Detail: name,
				})
			}
		}
	}
	return nil
}

// fail delivers err to every item that does not have a result yet.
func fail(b *apBatch, err error) {
	for i := range b.items {
		if !b.done[i] {
			b.deliver(i, itemResult{err: err})
		}
	}
}

// expireDue cancels every undelivered item of the batch whose deadline
// has passed: a request its client already gave up on is not worth
// device time. Returns the number of live items remaining; a zero
// return means the whole batch can be skipped. Traced cancellations
// leave an "expired" span behind so latency attribution sees them.
func (f *Fleet) expireDue(b *apBatch, now time.Time, where string) int {
	live := 0
	for i, it := range b.items {
		if b.done[i] {
			continue
		}
		if it.deadline.IsZero() || it.deadline.After(now) {
			live++
			continue
		}
		if b.firstTraced(i) {
			f.itemSpan(it, b, "expired", -1, -1, now, 0, where)
		}
		b.deliver(i, itemResult{err: errExpired})
	}
	return live
}

// expireItem cancels one item that expired before ever reaching the
// fleet (formation-queue cancellation by the batcher) — there is no
// batch context, so the span carries only the trace identity.
func (f *Fleet) expireItem(e *entry, it *item, where string) {
	f.tracer.Event(it.trace, "expired", e.spec.Model, time.Now(), 0, where)
	it.res <- itemResult{err: errExpired}
}

// parallelism is how many batches the batch's deployment can execute
// concurrently: its live replicas, or the whole live fleet for unpinned
// entries. Scales the entry's per-item interval estimate, so a dead
// replica must not count: the queue drains at the survivors' rate.
func (f *Fleet) parallelism(b *apBatch) int {
	if len(b.pl.replicas) == 0 {
		return f.NumLive()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, rep := range b.pl.replicas {
		if f.replicaLiveLocked(rep) {
			n++
		}
	}
	return n
}

func (f *Fleet) run(d *device) {
	defer f.wg.Done()
	for b := range d.ch {
		f.mu.Lock()
		dead := d.dead
		f.mu.Unlock()
		if dead {
			f.requeue(d, b)
		} else {
			f.execStage(d, b)
		}
		f.mu.Lock()
		d.queued--
		f.pending--
		if d.queued < 0 || f.pending < 0 {
			panic(fmt.Sprintf("serve: fleet accounting underflow (device %d queued %d, pending %d)",
				d.id, d.queued, f.pending))
		}
		// The device is free: batches held while it was busy leave now. (A
		// dead device emptying its queue fires too; a spurious wake-up
		// costs the batcher one re-check.)
		var wakers []chan struct{}
		if d.queued == 0 {
			wakers, f.wakers = f.wakers, nil
		}
		f.cond.Broadcast()
		f.mu.Unlock()
		signal(wakers)
	}
}

// dilate holds the device until WallScale × the simulated latency of the
// work it just priced has elapsed on the wall clock, counting from start
// (engine compute already spent is credited, never doubled). The sleep
// happens before results are delivered, so clients, the delay estimator,
// and the autoscaler all observe cost-model-governed service times.
func (f *Fleet) dilate(simNS float64, start time.Time) {
	if f.WallScale <= 0 {
		return
	}
	target := time.Duration(simNS * f.WallScale)
	if spent := time.Since(start); spent < target {
		time.Sleep(target - spent)
	}
}

// execStage is the one batch executor: it runs one pipeline stage of the
// batch on this device — for the default one-stage pipeline, the whole
// model. Every live item advances one stage of its ShardRun in one
// batched replay of the compiled AP programs, the stage is priced by the
// pipeline cost model, and the batch either hops to the next stage's
// device or delivers its results.
func (f *Fleet) execStage(d *device, b *apBatch) {
	start := time.Now()
	// A one-stage pipeline looks like what it is, a whole-model dispatch:
	// one "exec" span outside any stage, no stage count or device path.
	k, span, spanStage := b.pl.stages(), "stage", b.stage
	if k == 1 {
		span, spanStage = "exec", -1
	}
	if b.stage == 0 {
		// Deadline gate, stage 0 only: items that expired while queued are
		// cancelled, not executed, and a fully expired batch never touches
		// the device — but once a batch has bought pipeline work, finishing
		// beats discarding it partway through.
		if f.expireDue(b, start, "before execution") == 0 {
			return
		}
		b.started = start
		b.runs = make([]*sim.ShardRun, len(b.items))
		for i, it := range b.items {
			if b.done[i] {
				continue
			}
			run, err := sim.NewShardRun(b.e.comp, b.pl.shard, it.in)
			if err != nil {
				b.deliver(i, itemResult{err: err})
				continue
			}
			b.runs[i] = run
		}
		f.waitQueueSpans(b, d.id, start)
	} else if f.tracer != nil && !b.hop.IsZero() {
		for i, it := range b.items {
			if !b.done[i] && b.firstTraced(i) {
				f.itemSpan(it, b, "hop", d.id, b.stage, b.hop, start.Sub(b.hop), "")
			}
		}
	}

	br := sim.AnalyzeStageBatch(b.pl.pipeline, b.stage, len(b.items))
	f.mu.Lock()
	d.busyNS += br.LatencyNS
	d.batches++
	d.meter.Spend(br.EnergyPJ, b.pl.stageWrites[b.stage]*float64(len(b.items)))
	f.mu.Unlock()
	b.simNS += br.LatencyNS
	b.simPJ += br.EnergyPJ
	b.path = append(b.path, d.id)

	// Advance every live run one stage in one batched engine pass: the
	// runs share their stage's program interpretations.
	live := make([]*sim.ShardRun, 0, len(b.items))
	idx := make([]int, 0, len(b.items))
	for i, run := range b.runs {
		if run != nil { // nil: failed or already delivered at an earlier stage
			live = append(live, run)
			idx = append(idx, i)
		}
	}
	for j, err := range sim.StepBatch(live, f.layerHook(b, d.id, spanStage)) {
		if err != nil {
			b.deliver(idx[j], itemResult{err: err})
			b.runs[idx[j]] = nil
		}
	}

	f.dilate(br.LatencyNS, start)

	// The span is recorded before any result is delivered: a client that
	// reads its trace the moment its response arrives must find it there.
	dur := time.Since(start)
	b.execNS += dur.Nanoseconds()
	for i, it := range b.items {
		if !b.done[i] && b.firstTraced(i) {
			f.itemSpan(it, b, span, d.id, spanStage, start, dur, "")
		}
	}
	f.metrics.ObserveExec(b.stage, dur)

	if b.stage < k-1 {
		b.stage++
		f.forward(b.devs[b.stage], b)
		return
	}

	info := BatchInfo{
		Device:         d.id,
		Size:           len(b.items),
		Replica:        b.replica,
		Requeues:       b.attempts,
		SimLatencyNS:   b.simNS,
		SimPerSampleNS: b.simNS / float64(len(b.items)),
		SimEnergyPJ:    b.simPJ,
	}
	if k > 1 {
		info.Stages, info.Path = k, b.path
	}
	for i, it := range b.items {
		if b.runs[i] == nil {
			continue
		}
		lg := b.runs[i].Logits()
		info.QueueWallNS = b.started.Sub(it.enq).Nanoseconds()
		b.deliver(i, itemResult{logits: append([]int32(nil), lg.Data...), argmax: lg.ArgmaxInt()[0], info: info})
		disp := dispatchOf(it)
		f.metrics.ObserveItemPhases(disp.Sub(it.enq), b.started.Sub(disp), time.Duration(b.execNS))
	}
	f.metrics.batches.Inc()
	f.metrics.batchedSamples.Add(int64(len(b.items)))
	f.metrics.simDeviceNS.Add(b.simNS)
	f.metrics.simEnergyPJ.Add(b.simPJ)
	b.e.est.Observe(len(b.items), time.Duration(b.execNS), f.parallelism(b))
}

// DeviceStat is a snapshot of one simulated device for /metrics.
type DeviceStat struct {
	ID        int
	Up        bool
	Queued    int
	Batches   int64
	SimBusyNS float64
	// EnergyPJ and Writes are the device's cumulative modeled energy and
	// busiest-cell write wear (energy.Meter, fed from the batch cost and
	// endurance models at each dispatch).
	EnergyPJ float64
	Writes   float64
}

// Stats snapshots every device. Negative counters would mean the
// queued++/queued-- pairing broke somewhere in the dispatch, stage-hop,
// or requeue paths, so Stats panics on them — an internal invariant,
// per the panic-vs-error boundary in docs/ARCHITECTURE.md.
func (f *Fleet) Stats() []DeviceStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]DeviceStat, len(f.devices))
	for i, d := range f.devices {
		if d.queued < 0 {
			panic(fmt.Sprintf("serve: device %d queued count %d < 0", d.id, d.queued))
		}
		out[i] = DeviceStat{
			ID: d.id, Up: !d.dead, Queued: d.queued, Batches: d.batches, SimBusyNS: d.busyNS,
			EnergyPJ: d.meter.EnergyPJ, Writes: d.meter.Writes,
		}
	}
	return out
}

// Pending returns the number of batches admitted but not yet retired
// (including sharded batches between stage hops and failover requeues in
// flight). A drained fleet reports 0.
func (f *Fleet) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending
}

// Close stops intake, fails late submits, waits for every admitted batch
// (including in-flight pipeline hops and requeues) to retire, then stops
// the device goroutines. Call after all batchers are closed; taking the
// write lock waits out any Submit still blocked on a full device queue.
func (f *Fleet) Close() { _ = f.CloseCtx(context.Background()) }

// CloseCtx is Close with a bound: when ctx ends before the pipeline
// drains, it returns an error with the in-flight count instead of
// waiting forever. The device goroutines and their channels are left
// alive in that case — closing channels under in-flight stage hops
// would panic the hop — which leaks them, but CloseCtx timing out means
// the process is being torn down anyway.
func (f *Fleet) CloseCtx(ctx context.Context) error {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return nil
	}
	f.closed = true
	f.closeMu.Unlock()

	// The cond has no native context support: a watcher broadcasts it
	// when ctx ends so the wait below can observe the expiry.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			f.mu.Lock()
			f.cond.Broadcast()
			f.mu.Unlock()
		case <-watchDone:
		}
	}()

	// Device loops stay alive until the pipeline is empty: a sharded
	// batch between stages (or a batch being requeued off a dead device)
	// holds pending > 0, so its next hop still finds an open channel.
	f.mu.Lock()
	for f.pending > 0 && ctx.Err() == nil {
		f.cond.Wait()
	}
	stranded := f.pending
	f.mu.Unlock()
	if stranded > 0 {
		return fmt.Errorf("serve: drain timed out with %d batches in flight", stranded)
	}

	for _, d := range f.devices {
		close(d.ch)
	}
	f.wg.Wait()
	return nil
}
