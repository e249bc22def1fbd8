package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"rtmap"
	"rtmap/internal/dispatch"
	"rtmap/internal/serve"
	"rtmap/internal/workload"
)

// sloSection is the JSON artifact of the SLO-scheduling benchmark
// (bench/BENCH_slo.json): two serving arms driven with the identical
// open-loop mixed-deadline workload on identical hardware, compared on
// goodput — requests answered 200 within their own deadline budget.
//
//   - "static": fixed devices/replicas, SLO machinery disabled. The
//     server runs throughput-only FIFO batching; deadlines exist only in
//     the client's ledger.
//   - "slo": deadline-aware formation, load shedding, and the
//     autoscaler growing the deployment from one replica, all on.
//
// The CI smoke job regenerates this artifact; GoodputRatio dropping
// toward 1.0 means the scheduler stopped earning its complexity, and
// any bit-exactness violation fails the run outright.
type sloSection struct {
	Network   string  `json:"network"`
	DurationS float64 `json:"duration_s_per_arm"`
	// WallScale is the serve.Options.WallScale dilation factor both arms
	// run under: simulated device latency is honored as wall time, so
	// service time — and therefore all queueing and deadline behaviour —
	// is governed by the paper's cost model instead of host CPU speed.
	WallScale float64 `json:"wall_scale"`
	// OfferedPerSec is the open-loop arrival rate both arms receive,
	// calibrated to ~1.3x the measured capacity of the static
	// configuration so deadline pressure is real but bounded.
	OfferedPerSec float64       `json:"offered_per_s"`
	Mix           []sloMixEntry `json:"mix"`
	Static        sloArm        `json:"static"`
	SLO           sloArm        `json:"slo"`
	// GoodputRatio is SLO-arm goodput over static-arm goodput at the
	// same offered load; the acceptance floor is 1.5.
	GoodputRatio float64 `json:"goodput_ratio"`
	// BitExactViolations counts sampled bit-exact responses whose logits
	// diverged from the reference engine. Must be zero.
	BitExactViolations int `json:"bit_exact_violations"`
	BitExactChecked    int `json:"bit_exact_checked"`
}

// sloMixEntry documents one class of the driven workload.
type sloMixEntry struct {
	Class      string  `json:"class"`
	WeightPct  int     `json:"weight_pct"`
	DeadlineMS float64 `json:"deadline_ms"` // 0 = none
}

// sloArm is one serving configuration's measured outcome ledger.
type sloArm struct {
	Config        string                 `json:"config"`
	Sent          int64                  `json:"sent"`
	Accepted      int64                  `json:"accepted"`
	Shed          int64                  `json:"shed"`
	Expired       int64                  `json:"expired"`
	Failed        int64                  `json:"failed"`
	Goodput       int64                  `json:"goodput"`
	GoodputPerSec float64                `json:"goodput_per_s"`
	FinalReplicas int                    `json:"final_replicas"`
	Classes       map[string]sloArmClass `json:"classes"`
}

// sloArmClass is one class's slice of an arm's ledger.
type sloArmClass struct {
	DeadlineMS float64 `json:"deadline_ms"`
	Sent       int64   `json:"sent"`
	Accepted   int64   `json:"accepted"`
	Shed       int64   `json:"shed"`
	Expired    int64   `json:"expired"`
	Goodput    int64   `json:"goodput"`
}

// sloClassSpec is one class of the driven mix.
type sloClassSpec struct {
	name     string
	weight   int
	deadline time.Duration // 0 = none
}

// sloWorkload is everything both arms share: the class schedule, the
// request bodies, and the reference logits for bit-exact spot checks.
type sloWorkload struct {
	schedule    []*sloClassSpec // deterministic 10-slot proportional fill
	bodies      [][]byte
	exactBodies [][]byte  // bit-exact variants, verified against wantLogits
	wantLogits  [][]int32 // reference logits per exactBodies index
}

// sloSweep builds the shared workload, calibrates the offered rate
// against a throwaway static server, then drives both arms with the
// identical schedule.
func sloSweep(seed uint64, dur time.Duration, noCache bool, progress func(string)) (*sloSection, error) {
	const devices, maxBatch = 4, 8
	// Dilation factor: tinycnn's batch-8 simulated latency is ~8.7us, so
	// x1000 makes one device worth ~1.1ms of wall time per item. That
	// puts the device — not the HTTP handler — on the critical path,
	// which is the regime the scheduler exists for: replicas add real
	// capacity, backlogs convert into missed deadlines, and the
	// autoscaler's cost-model pricing matches observed wall time.
	const wallScale = 1000
	mix := []sloClassSpec{
		{name: "interactive", weight: 5, deadline: 50 * time.Millisecond},
		{name: "standard", weight: 3, deadline: 200 * time.Millisecond},
		{name: "bulk", weight: 2, deadline: 0},
	}
	wl, err := buildSLOWorkload(mix, seed)
	if err != nil {
		return nil, err
	}
	sec := &sloSection{Network: "tinycnn", DurationS: dur.Seconds(), WallScale: wallScale}
	for _, c := range mix {
		sec.Mix = append(sec.Mix, sloMixEntry{
			Class: c.name, WeightPct: c.weight * 10,
			DeadlineMS: float64(c.deadline) / float64(time.Millisecond),
		})
	}

	staticOpts := serve.Options{
		Devices: devices, Replicas: 2, MaxBatch: maxBatch, MaxModels: 2,
		Window: 2 * time.Millisecond, DisableSLO: true,
		WallScale: wallScale,
		NoCache:   noCache, Logf: func(string, ...any) {},
	}
	// Shedding bound sized to the tightest deadline: a backlog worth more
	// than half an interactive budget cannot serve that class in time.
	sloOpts := serve.Options{
		Devices: devices, Replicas: 1, MaxBatch: maxBatch, MaxModels: 2,
		Window:        2 * time.Millisecond,
		MaxQueueDelay: 25 * time.Millisecond,
		Autoscale:     true, AutoscaleInterval: 100 * time.Millisecond,
		WallScale: wallScale,
		NoCache:   noCache, Logf: func(string, ...any) {},
	}

	progress("calibrating offered load against the static configuration")
	capacity, err := calibrateCapacity(staticOpts, wl.bodies[0])
	if err != nil {
		return nil, err
	}
	sec.OfferedPerSec = capacity * 1.3

	progress(fmt.Sprintf("driving static arm at %.0f req/s for %v", sec.OfferedPerSec, dur))
	st, err := driveSLOArm(staticOpts, "static 2 replicas, SLO off", sec.OfferedPerSec, dur, wl, sec)
	if err != nil {
		return nil, err
	}
	sec.Static = *st

	progress(fmt.Sprintf("driving SLO arm at %.0f req/s for %v", sec.OfferedPerSec, dur))
	sl, err := driveSLOArm(sloOpts, "autoscale from 1 replica, shed at 25ms backlog", sec.OfferedPerSec, dur, wl, sec)
	if err != nil {
		return nil, err
	}
	sec.SLO = *sl

	if sec.Static.Goodput > 0 {
		sec.GoodputRatio = float64(sec.SLO.Goodput) / float64(sec.Static.Goodput)
	}
	return sec, nil
}

// buildSLOWorkload pre-builds the request bodies and the bit-exact
// reference logits the spot checks compare against.
func buildSLOWorkload(mix []sloClassSpec, seed uint64) (*sloWorkload, error) {
	const pool, exactPool = 16, 4
	net, err := buildNet("tinycnn", seed)
	if err != nil {
		return nil, err
	}
	wl := &sloWorkload{}

	weights := make([]int, len(mix))
	for i, c := range mix {
		weights[i] = c.weight
	}
	for _, c := range dispatch.MixSchedule(weights, 10) {
		wl.schedule = append(wl.schedule, &mix[c])
	}

	sparsity := 0.8
	data := workload.InputData(net.InputShape, pool+exactPool, seed+1000)
	marshal := func(inputs [][]float32, exact bool) ([]byte, error) {
		req := serve.InferRequest{
			Model: "tinycnn", ActBits: 4, Sparsity: &sparsity, Seed: seed,
			BitExact: exact, Inputs: inputs,
		}
		return json.Marshal(&req)
	}
	for i := 0; i < pool; i++ {
		b, err := marshal(data[i:i+1], false)
		if err != nil {
			return nil, err
		}
		wl.bodies = append(wl.bodies, b)
	}

	// Reference logits from the standalone engine: the serving path must
	// reproduce them bit for bit, deadline pressure or not.
	cfg := rtmap.CompileConfigWithCache(nil, false)
	cfg.KeepPrograms = true
	comp, err := rtmap.Compile(net, cfg)
	if err != nil {
		return nil, err
	}
	exactIns := workload.Inputs(net.InputShape, exactPool, seed+1000+pool)
	for i := 0; i < exactPool; i++ {
		b, err := marshal([][]float32{exactIns[i].Data}, true)
		if err != nil {
			return nil, err
		}
		wl.exactBodies = append(wl.exactBodies, b)
		tr, err := rtmap.RunFunctional(comp, exactIns[i])
		if err != nil {
			return nil, err
		}
		wl.wantLogits = append(wl.wantLogits, tr.Logits().Data)
	}
	return wl, nil
}

// calibrateCapacity measures the static configuration's closed-loop
// throughput on a throwaway server, so the offered rate tracks the host
// instead of a hardcoded number.
func calibrateCapacity(opts serve.Options, body []byte) (float64, error) {
	srv := serve.New(opts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	do := func() error {
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return fmt.Errorf("calibration: HTTP %d: %s", w.Code, w.Body.String())
		}
		return nil
	}
	if err := do(); err != nil { // warm-up: admission compiles the model
		return 0, err
	}
	// Enough closed-loop workers to keep every replica's batcher full:
	// with dilated devices the measurement is saturation throughput, not
	// latency-bound round-trips.
	const workers = 64
	var count atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	deadline := start.Add(700 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := do(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	c := float64(count.Load()) / elapsed
	if c <= 0 {
		return 0, fmt.Errorf("calibration measured zero throughput")
	}
	return c, nil
}

// driveSLOArm runs one serving configuration under the shared open-loop
// workload and returns its outcome ledger. Bit-exact spot checks (one
// request in 8) verify logits against the reference engine and
// accumulate into sec.BitExactChecked/BitExactViolations.
func driveSLOArm(opts serve.Options, config string, rate float64, dur time.Duration,
	wl *sloWorkload, sec *sloSection) (*sloArm, error) {
	srv := serve.New(opts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// Warm-up admits (compiles) the model outside the window.
	{
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(wl.bodies[0]))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("%s warm-up: HTTP %d: %s", config, w.Code, w.Body.String())
		}
	}

	arm := &sloArm{Config: config, Classes: map[string]sloArmClass{}}
	tally := map[string]*sloArmClass{}
	for i := range wl.schedule {
		c := wl.schedule[i]
		if tally[c.name] == nil {
			tally[c.name] = &sloArmClass{DeadlineMS: float64(c.deadline) / float64(time.Millisecond)}
		}
	}
	var mu sync.Mutex
	var exactChecked, exactBad int

	shoot := func(n int) {
		sc := wl.schedule[n%len(wl.schedule)]
		exact := n%8 == 0
		var body []byte
		var exactIdx int
		if exact {
			exactIdx = (n / 8) % len(wl.exactBodies)
			body = wl.exactBodies[exactIdx]
		} else {
			body = wl.bodies[n%len(wl.bodies)]
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		r.Header.Set(serve.ClassHeader, sc.name)
		if sc.deadline > 0 {
			r.Header.Set(serve.DeadlineHeader,
				fmt.Sprintf("%g", float64(sc.deadline)/float64(time.Millisecond)))
		}
		t0 := time.Now()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		wall := time.Since(t0)

		good := false
		var logits []int32
		if w.Code == http.StatusOK {
			good = sc.deadline == 0 || wall <= sc.deadline
			if exact {
				var resp serve.InferResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err == nil && len(resp.Results) > 0 {
					logits = resp.Results[0].Logits
				}
			}
		}
		var kind string
		if w.Code != http.StatusOK {
			var eresp struct {
				Kind string `json:"kind"`
			}
			json.Unmarshal(w.Body.Bytes(), &eresp)
			kind = eresp.Kind
		}

		mu.Lock()
		defer mu.Unlock()
		ct := tally[sc.name]
		ct.Sent++
		arm.Sent++
		switch {
		case w.Code == http.StatusOK:
			ct.Accepted++
			arm.Accepted++
			if good {
				ct.Goodput++
				arm.Goodput++
			}
		case w.Code == http.StatusTooManyRequests:
			ct.Shed++
			arm.Shed++
		case w.Code == http.StatusServiceUnavailable && kind == "expired":
			ct.Expired++
			arm.Expired++
		default:
			arm.Failed++
		}
		if logits != nil {
			exactChecked++
			want := wl.wantLogits[exactIdx]
			if len(logits) != len(want) {
				exactBad++
			} else {
				for j := range want {
					if logits[j] != want[j] {
						exactBad++
						break
					}
				}
			}
		}
	}

	// Open loop with catch-up pacing: every wakeup dispatches however
	// many arrivals the schedule owes (a sleep-based ticker tops out at
	// the kernel timer granularity, ~1ms, and silently halves the offered
	// rate). Bounded in-flight: under overload the semaphore converts
	// excess arrivals into client-side queueing, which both arms
	// experience identically.
	sem := make(chan struct{}, 512)
	var wg sync.WaitGroup
	start := time.Now()
	for n := 0; ; {
		elapsed := time.Since(start)
		if elapsed >= dur {
			break
		}
		for target := int(rate * elapsed.Seconds()); n < target; n++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				defer func() { <-sem }()
				shoot(n)
			}(n)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	elapsed := dur.Seconds()
	arm.GoodputPerSec = float64(arm.Goodput) / elapsed
	for name, ct := range tally {
		arm.Classes[name] = *ct
	}
	if loaded := srv.Registry().Loaded(); len(loaded) > 0 {
		arm.FinalReplicas = loaded[0].Replicas
	}
	sec.BitExactChecked += exactChecked
	sec.BitExactViolations += exactBad
	return arm, nil
}
