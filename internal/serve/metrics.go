package serve

import (
	"strconv"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/metrics"
)

// latencyBuckets are the upper bounds (seconds) of every latency
// histogram — Prometheus classic-histogram layout, le="+Inf" implied.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// phaseNames orders the request-phase decomposition: wait (enqueue to
// batch dispatch), queue (dispatch to execution start), exec (execution
// proper; summed over stages for sharded models).
var phaseNames = [...]string{"wait", "queue", "exec"}

// SLOOutcome classifies one /v1/infer request for the per-class SLO
// accounting: every submitted request lands in exactly one outcome, so
// the per-class outcome counts always sum to the submitted count — the
// invariant TestSLOAccountingAudit holds the server to.
type SLOOutcome int

const (
	// OutcomeAccepted: the request was served (HTTP 200).
	OutcomeAccepted SLOOutcome = iota
	// OutcomeShed: admission control refused it (HTTP 429).
	OutcomeShed
	// OutcomeExpired: admitted, but its deadline passed before execution
	// and it was cancelled (HTTP 503, kind "expired").
	OutcomeExpired
	// OutcomeFailed: any other error (4xx/5xx).
	OutcomeFailed

	numOutcomes = 4
)

// outcomeNames index by SLOOutcome for the exposition labels.
var outcomeNames = [numOutcomes]string{"accepted", "shed", "expired", "failed"}

// classIndex clamps a class to a valid metrics row (classes come from
// ParseClass, but the accounting must never index out of bounds).
func classIndex(c dispatch.Class) int {
	if c < 0 || int(c) >= dispatch.NumClasses {
		return int(dispatch.ClassStandard)
	}
	return int(c)
}

// className returns the exposition label of a class row.
func className(i int) string { return dispatch.Class(i).String() }

// Metrics holds the instruments the node's request path updates, all
// resolved by NewMetrics: an observation is an atomic add or one histogram's
// own lock, so handlers, batchers and device goroutines share nothing.
type Metrics struct {
	requests, inferences, errors, batches, batchedSamples *metrics.Counter
	requeues, deviceFailures, scaleUps, scaleDowns        *metrics.Counter
	planVerifyFails, certHits, certMisses                 *metrics.Counter
	simDeviceNS, simEnergyPJ                              *metrics.FloatCounter

	batchClose                  [dispatch.NumCloseReasons]*metrics.Counter // by dispatch.CloseReason
	deadlineMet, deadlineMissed [dispatch.NumClasses]*metrics.Counter

	// slo is the per-class request ledger, [class][outcome]. A collector
	// renders the cells and their per-class sum from one read, so the
	// submitted total partitions exactly in every scrape.
	slo [dispatch.NumClasses][numOutcomes]metrics.Counter

	// lat is whole-request wall time; phases decomposes it per delivered
	// item, indexed like phaseNames; stageExec attributes execution wall
	// time to pipeline stages (a one-stage pipeline fills index 0 only).
	lat       *metrics.Histogram
	phases    [len(phaseNames)]*metrics.Histogram
	stageExec []*metrics.Histogram
}

// NewMetrics declares the request-path families on reg. stages bounds
// the pipeline depth ObserveExec will see (the fleet size).
func NewMetrics(reg *metrics.Registry, stages int) *Metrics {
	counter := func(name, help string, labels ...string) *metrics.Family {
		return reg.Declare(metrics.KindCounter, name, help, labels...)
	}
	m := &Metrics{
		requests:        counter("rtmap_requests_total", "POST /v1/infer requests finished, whatever their outcome.").Counter(),
		inferences:      counter("rtmap_inferences_total", "Input samples served in successful requests.").Counter(),
		errors:          counter("rtmap_request_errors_total", "Requests answered with any 4xx or 5xx.").Counter(),
		batches:         counter("rtmap_batches_total", "Batches that ran to completion on the fleet.").Counter(),
		batchedSamples:  counter("rtmap_batched_samples_total", "Samples in completed batches; over rtmap_batches_total, the mean batch size.").Counter(),
		simDeviceNS:     counter("rtmap_sim_device_ns_total", "Modeled device latency of completed batches, summed over stages (cost model, ns).").FloatCounter(),
		simEnergyPJ:     counter("rtmap_sim_energy_pj_total", "Modeled energy of completed batches (cost model, pJ).").FloatCounter(),
		requeues:        counter("rtmap_requeued_batches_total", "Batches requeued off a dead device onto a surviving replica.").Counter(),
		deviceFailures:  counter("rtmap_device_failures_total", "Devices marked dead.").Counter(),
		planVerifyFails: counter("rtmap_plan_verify_failures_total", "Model admissions rejected because the compiled artifact failed the admission proof: the plan audit or the dataflow check.").Counter(),
		certHits:        counter("rtmap_certificate_hits_total", "Admissions proved by a stored plan certificate instead of re-verification.").Counter(),
		certMisses:      counter("rtmap_certificate_misses_total", "Admissions that paid the full admission proof (and stored its certificate).").Counter(),
		lat:             reg.Declare(metrics.KindHistogram, "rtmap_request_seconds", "Wall time of a /v1/infer request inside the handler.").Histogram(latencyBuckets),
	}
	closes := counter("rtmap_batch_close_total", "Batches leaving formation, by the rule that closed them: full, idle device, deadline pressure, window cap, drain.", "reason")
	for why := range m.batchClose {
		m.batchClose[why] = closes.Counter(dispatch.CloseReason(why).String())
	}
	// Every (class, outcome) cell is emitted — zeros included — so audits
	// can assert exact equalities without guessing at absent series.
	sloRequests := counter("rtmap_slo_requests_total", "Finished requests by priority class and terminal outcome; every request lands in exactly one cell.", "class", "outcome")
	sloSubmitted := counter("rtmap_slo_submitted_total", "Requests submitted per class: the sum of the class's outcome cells, read in the same scrape.", "class")
	reg.Collect(func(s *metrics.Scrape) {
		for c := range m.slo {
			var sum int64
			for o := range m.slo[c] {
				n := m.slo[c][o].Load()
				sum += n
				s.Int(sloRequests, n, className(c), outcomeNames[o])
			}
			s.Int(sloSubmitted, sum, className(c))
		}
	})
	deadlines := counter("rtmap_slo_deadline_total", "Accepted deadline-bearing requests, by whether they finished inside their budget.", "class", "result")
	for c := range m.deadlineMet {
		m.deadlineMet[c] = deadlines.Counter(className(c), "met")
		m.deadlineMissed[c] = deadlines.Counter(className(c), "missed")
	}
	scales := counter("rtmap_scaler_decisions_total", "Autoscaler resizes applied, by direction of the device count.", "direction")
	m.scaleUps, m.scaleDowns = scales.Counter("up"), scales.Counter("down")
	phases := reg.Declare(metrics.KindHistogram, "rtmap_request_phase_seconds", "Per delivered sample: wait (enqueue to batch dispatch), queue (dispatch to execution start), exec (execution, summed over stages).", "phase")
	for i, name := range phaseNames {
		m.phases[i] = phases.Histogram(latencyBuckets, name)
	}
	stageExec := reg.Declare(metrics.KindHistogram, "rtmap_stage_exec_seconds", "Execution wall time of one batch on one pipeline stage; a stage appears once it has run.", "stage")
	stageExec.Sparse = true
	for i := 0; i < stages; i++ {
		m.stageExec = append(m.stageExec, stageExec.Histogram(latencyBuckets, strconv.Itoa(i)))
	}
	return m
}

// ObserveRequest records one finished /v1/infer request.
func (m *Metrics) ObserveRequest(wall time.Duration, samples int, failed bool) {
	m.requests.Inc()
	m.inferences.Add(int64(samples))
	if failed {
		m.errors.Inc()
	}
	m.lat.Observe(wall.Seconds())
}

// ObserveItemPhases records one delivered item's wall-time decomposition:
// batcher wait, fleet queue, execution (summed over pipeline stages).
func (m *Metrics) ObserveItemPhases(wait, queue, exec time.Duration) {
	m.phases[0].Observe(wait.Seconds())
	m.phases[1].Observe(queue.Seconds())
	m.phases[2].Observe(exec.Seconds())
}

// ObserveExec attributes one batch's execution wall time to a stage.
func (m *Metrics) ObserveExec(stage int, wall time.Duration) {
	m.stageExec[stage].Observe(wall.Seconds())
}

// ObserveSLO records one finished request in the per-class ledger.
// Callers classify every request exactly once.
func (m *Metrics) ObserveSLO(class dispatch.Class, outcome SLOOutcome) {
	if outcome < 0 || int(outcome) >= numOutcomes {
		outcome = OutcomeFailed
	}
	m.slo[classIndex(class)][outcome].Inc()
}

// collectFleet declares the per-device families, fed from one Fleet.Stats
// snapshot per scrape so the series agree with each other.
func collectFleet(reg *metrics.Registry, fleet *Fleet) {
	up := reg.Declare(metrics.KindGauge, "rtmap_device_up", "1 while the device is alive, 0 once it is marked dead.", "device")
	queued := reg.Declare(metrics.KindGauge, "rtmap_device_queue_depth", "Batches queued on or executing on the device.", "device")
	batches := reg.Declare(metrics.KindCounter, "rtmap_device_batches_total", "Batch stages the device has executed.", "device")
	busy := reg.Declare(metrics.KindCounter, "rtmap_device_sim_busy_ns_total", "Modeled time the device spent executing (cost model, ns).", "device")
	energy := reg.Declare(metrics.KindCounter, "rtmap_device_energy_pj_total", "Modeled energy the device spent (cost model, pJ).", "device")
	writes := reg.Declare(metrics.KindCounter, "rtmap_device_writes_total", "Modeled write wear: writes to the device's busiest cell (endurance model).", "device")
	reg.Collect(func(s *metrics.Scrape) {
		for _, d := range fleet.Stats() {
			id := strconv.Itoa(d.ID)
			s.Bool(up, d.Up, id)
			s.Int(queued, int64(d.Queued), id)
			s.Int(batches, d.Batches, id)
			s.Float(busy, d.SimBusyNS, id)
			s.Float(energy, d.EnergyPJ, id)
			s.Float(writes, d.Writes, id)
		}
	})
}

// collectModels declares the per-model families, fed from one
// Registry.Loaded snapshot per scrape.
func collectModels(reg *metrics.Registry, models *Registry) {
	loaded := reg.Declare(metrics.KindGauge, "rtmap_models_loaded", "Model variants resident in the registry, admissions still compiling included.")
	stages := reg.Declare(metrics.KindGauge, "rtmap_model_stages", "Pipeline depth the model is served at.", "model")
	bottleneck := reg.Declare(metrics.KindGauge, "rtmap_model_sim_bottleneck_ns", "Modeled steady-state interval between samples of a pipeline deeper than one stage (ns).", "model")
	replicas := reg.Declare(metrics.KindGauge, "rtmap_model_replicas", "Replica placements of the model.", "model")
	live := reg.Declare(metrics.KindGauge, "rtmap_model_replicas_live", "Replica placements whose devices are all alive.", "model")
	depth := reg.Declare(metrics.KindGauge, "rtmap_model_queue_depth", "Samples admitted but not yet dispatched from batch formation.", "model")
	delay := reg.Declare(metrics.KindGauge, "rtmap_model_queue_delay_est_seconds", "Queue delay admission control prices the model's backlog at: the figure it sheds on.", "model")
	reg.Collect(func(s *metrics.Scrape) {
		s.Int(loaded, int64(models.Len()))
		for _, m := range models.Loaded() {
			s.Int(stages, int64(max(m.Stages, 1)), m.Key)
			if m.Stages > 0 {
				s.Float(bottleneck, m.BottleneckNS, m.Key)
			}
			s.Int(replicas, int64(m.Replicas), m.Key)
			s.Int(live, int64(m.LiveReplicas), m.Key)
			s.Int(depth, m.QueueDepth, m.Key)
			s.Float(delay, m.QueueDelayEstMS/1e3, m.Key)
		}
	})
}
