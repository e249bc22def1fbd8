package serve

import (
	"fmt"
	"io"
	"sync"
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

// Metrics accumulates the serving counters exposed at /metrics in
// Prometheus text exposition format. Hand-rolled: the module carries no
// dependencies, and the format is a few lines of text.
type Metrics struct {
	mu sync.Mutex

	requests   int64 // HTTP inference requests
	inferences int64 // individual samples served
	errors     int64 // failed requests

	batches      int64
	batchSizeSum int64
	simLatencyNS float64
	simEnergyPJ  float64

	// batchClose counts batches leaving formation by the rule that closed
	// them, indexed by dispatch.CloseReason.
	batchClose [dispatch.NumCloseReasons]int64

	requeues       int64 // batches requeued off dead devices
	deviceFailures int64 // devices marked dead

	planVerifyFails int64 // model admissions rejected by the plan verifier

	dataflowVerifyFails int64 // admissions rejected by the dataflow verifier
	certHits            int64 // admissions proved by a stored plan certificate
	certMisses          int64 // admissions that paid a full dataflow verification

	// slo is the per-class request ledger, [class][outcome]; deadline
	// counts met/missed results among accepted requests that carried a
	// deadline. scaleUps/scaleDowns count autoscaler resizes.
	slo            [dispatch.NumClasses][numOutcomes]int64
	deadlineMet    [dispatch.NumClasses]int64
	deadlineMissed [dispatch.NumClasses]int64
	scaleUps       int64
	scaleDowns     int64

	lat metrics.Histogram // whole-request wall time

	// phases decomposes request wall time per delivered item, indexed
	// like phaseNames; stageExec attributes execution wall time to
	// pipeline stages (a one-stage pipeline fills index 0 only), grown on
	// demand to the deepest stage observed.
	phases    [len(phaseNames)]metrics.Histogram
	stageExec []metrics.Histogram
}

func NewMetrics() *Metrics {
	m := &Metrics{lat: metrics.NewHistogram(latencyBuckets)}
	for i := range m.phases {
		m.phases[i] = metrics.NewHistogram(latencyBuckets)
	}
	return m
}

// ObserveRequest records one finished /v1/infer request.
func (m *Metrics) ObserveRequest(wall time.Duration, samples int, failed bool) {
	s := wall.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	m.inferences += int64(samples)
	if failed {
		m.errors++
	}
	m.lat.Observe(s)
}

// ObserveItemPhases records one delivered item's wall-time
// decomposition: batcher wait, fleet queue, and execution (summed over
// pipeline stages for sharded models).
func (m *Metrics) ObserveItemPhases(wait, queue, exec time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phases[0].Observe(wait.Seconds())
	m.phases[1].Observe(queue.Seconds())
	m.phases[2].Observe(exec.Seconds())
}

// ObserveExec attributes one batch's execution wall time to a pipeline
// stage.
func (m *Metrics) ObserveExec(stage int, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.stageExec) <= stage {
		m.stageExec = append(m.stageExec, metrics.NewHistogram(latencyBuckets))
	}
	m.stageExec[stage].Observe(wall.Seconds())
}

// ObserveBatch records one batch dispatched to a device.
func (m *Metrics) ObserveBatch(size int, simNS, simPJ float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.batchSizeSum += int64(size)
	m.simLatencyNS += simNS
	m.simEnergyPJ += simPJ
}

// ObserveBatchClose records why formation closed one batch.
func (m *Metrics) ObserveBatchClose(why dispatch.CloseReason) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchClose[why]++
}

// ObserveRequeue records one batch requeued off a dead device onto a
// surviving replica.
func (m *Metrics) ObserveRequeue() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requeues++
}

// ObserveDeviceFailure records one device marked dead.
func (m *Metrics) ObserveDeviceFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deviceFailures++
}

// ObservePlanVerifyFailure records one model admission rejected because
// its compiled plans failed static verification.
func (m *Metrics) ObservePlanVerifyFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.planVerifyFails++
}

// ObserveDataflowVerifyFailure records one model admission rejected
// because the whole-artifact dataflow verifier refuted it.
func (m *Metrics) ObserveDataflowVerifyFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dataflowVerifyFails++
}

// ObserveCertificate records one clean dataflow admission: a hit means
// a stored plan certificate was trusted in place of re-verification, a
// miss means the artifact was verified from scratch (and certified).
func (m *Metrics) ObserveCertificate(hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.certHits++
	} else {
		m.certMisses++
	}
}

// ObserveSLO records one finished request in the per-class ledger.
// Callers classify every request exactly once.
func (m *Metrics) ObserveSLO(class dispatch.Class, outcome SLOOutcome) {
	if outcome < 0 || int(outcome) >= numOutcomes {
		outcome = OutcomeFailed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slo[classIndex(class)][outcome]++
}

// ObserveDeadline records whether an accepted, deadline-bearing request
// was served within its budget.
func (m *Metrics) ObserveDeadline(class dispatch.Class, met bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if met {
		m.deadlineMet[classIndex(class)]++
	} else {
		m.deadlineMissed[classIndex(class)]++
	}
}

// ObserveScale records one applied autoscaler resize.
func (m *Metrics) ObserveScale(up bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if up {
		m.scaleUps++
	} else {
		m.scaleDowns++
	}
}

// WritePrometheus renders the counters. extra, when non-nil, appends
// caller-owned series (gauges that live outside Metrics).
func (m *Metrics) WritePrometheus(w io.Writer, extra func(io.Writer)) {
	m.mu.Lock()
	snap := struct {
		requests, inferences, errors, batches, batchSizeSum int64
		requeues, deviceFailures, planVerifyFails           int64
		dataflowVerifyFails, certHits, certMisses           int64
		simLatencyNS, simEnergyPJ                           float64
	}{m.requests, m.inferences, m.errors, m.batches, m.batchSizeSum,
		m.requeues, m.deviceFailures, m.planVerifyFails,
		m.dataflowVerifyFails, m.certHits, m.certMisses,
		m.simLatencyNS, m.simEnergyPJ}
	slo, batchClose := m.slo, m.batchClose
	deadlineMet, deadlineMissed := m.deadlineMet, m.deadlineMissed
	scaleUps, scaleDowns := m.scaleUps, m.scaleDowns
	lat := m.lat.Clone()
	var phases [len(phaseNames)]metrics.Histogram
	for i := range m.phases {
		phases[i] = m.phases[i].Clone()
	}
	stageExec := make([]metrics.Histogram, len(m.stageExec))
	for i := range m.stageExec {
		stageExec[i] = m.stageExec[i].Clone()
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE rtmap_requests_total counter\nrtmap_requests_total %d\n", snap.requests)
	fmt.Fprintf(w, "# TYPE rtmap_inferences_total counter\nrtmap_inferences_total %d\n", snap.inferences)
	fmt.Fprintf(w, "# TYPE rtmap_request_errors_total counter\nrtmap_request_errors_total %d\n", snap.errors)
	fmt.Fprintf(w, "# TYPE rtmap_batches_total counter\nrtmap_batches_total %d\n", snap.batches)
	fmt.Fprintf(w, "# TYPE rtmap_batched_samples_total counter\nrtmap_batched_samples_total %d\n", snap.batchSizeSum)
	fmt.Fprintf(w, "# TYPE rtmap_batch_close_total counter\n")
	for why, n := range batchClose {
		fmt.Fprintf(w, "rtmap_batch_close_total{reason=%q} %d\n", dispatch.CloseReason(why), n)
	}
	fmt.Fprintf(w, "# TYPE rtmap_sim_device_ns_total counter\nrtmap_sim_device_ns_total %g\n", snap.simLatencyNS)
	fmt.Fprintf(w, "# TYPE rtmap_sim_energy_pj_total counter\nrtmap_sim_energy_pj_total %g\n", snap.simEnergyPJ)
	fmt.Fprintf(w, "# TYPE rtmap_requeued_batches_total counter\nrtmap_requeued_batches_total %d\n", snap.requeues)
	fmt.Fprintf(w, "# TYPE rtmap_device_failures_total counter\nrtmap_device_failures_total %d\n", snap.deviceFailures)
	fmt.Fprintf(w, "# TYPE rtmap_plan_verify_failures_total counter\nrtmap_plan_verify_failures_total %d\n", snap.planVerifyFails)
	fmt.Fprintf(w, "# TYPE rtmap_dataflow_verify_failures_total counter\nrtmap_dataflow_verify_failures_total %d\n", snap.dataflowVerifyFails)
	fmt.Fprintf(w, "# TYPE rtmap_certificate_hits_total counter\nrtmap_certificate_hits_total %d\n", snap.certHits)
	fmt.Fprintf(w, "# TYPE rtmap_certificate_misses_total counter\nrtmap_certificate_misses_total %d\n", snap.certMisses)

	// The SLO ledger emits every (class, outcome) cell — zeros included —
	// so audits can assert exact equalities without guessing at absent
	// series, and submitted is derived from the same snapshot so the
	// accounting identity (sum of outcomes == submitted) holds exactly.
	fmt.Fprintf(w, "# TYPE rtmap_slo_requests_total counter\n")
	for c := range slo {
		for o, n := range slo[c] {
			fmt.Fprintf(w, "rtmap_slo_requests_total{class=%q,outcome=%q} %d\n",
				className(c), outcomeNames[o], n)
		}
	}
	fmt.Fprintf(w, "# TYPE rtmap_slo_submitted_total counter\n")
	for c := range slo {
		var sum int64
		for _, n := range slo[c] {
			sum += n
		}
		fmt.Fprintf(w, "rtmap_slo_submitted_total{class=%q} %d\n", className(c), sum)
	}
	fmt.Fprintf(w, "# TYPE rtmap_slo_deadline_total counter\n")
	for c := range deadlineMet {
		fmt.Fprintf(w, "rtmap_slo_deadline_total{class=%q,result=\"met\"} %d\n", className(c), deadlineMet[c])
		fmt.Fprintf(w, "rtmap_slo_deadline_total{class=%q,result=\"missed\"} %d\n", className(c), deadlineMissed[c])
	}
	fmt.Fprintf(w, "# TYPE rtmap_scaler_decisions_total counter\n")
	fmt.Fprintf(w, "rtmap_scaler_decisions_total{direction=\"up\"} %d\n", scaleUps)
	fmt.Fprintf(w, "rtmap_scaler_decisions_total{direction=\"down\"} %d\n", scaleDowns)

	fmt.Fprintf(w, "# TYPE rtmap_request_seconds histogram\n")
	lat.Write(w, "rtmap_request_seconds", "")

	fmt.Fprintf(w, "# TYPE rtmap_request_phase_seconds histogram\n")
	for i, name := range phaseNames {
		phases[i].Write(w, "rtmap_request_phase_seconds", fmt.Sprintf("phase=%q,", name))
	}

	if len(stageExec) > 0 {
		fmt.Fprintf(w, "# TYPE rtmap_stage_exec_seconds histogram\n")
		for i := range stageExec {
			stageExec[i].Write(w, "rtmap_stage_exec_seconds", fmt.Sprintf("stage=\"%d\",", i))
		}
	}

	if extra != nil {
		extra(w)
	}
}
