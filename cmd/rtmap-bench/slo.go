package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"rtmap/internal/loadgen"
	"rtmap/internal/model"
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
	// BitExactChecked counts the responses checked against the software
	// reference — every 200 of both arms — and BitExactViolations those
	// whose logits diverged from it. Must be zero.
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
	loadgen.Tally                        // sent, accepted, shed, expired, failed, goodput
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

// sloWorkload is what both arms share besides the class mix: the
// request bodies and, for each, the logits the software reference
// computes — what every 200 must carry, deadline pressure or not.
type sloWorkload struct {
	bodies     [][]byte
	wantLogits [][]int32 // model.ForwardInt's logits, per body
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
	mix := loadgen.NewMix([]loadgen.Class{
		{Name: "interactive", Weight: 5, DeadlineMS: 50},
		{Name: "standard", Weight: 3, DeadlineMS: 200},
		{Name: "bulk", Weight: 2},
	}, 10)
	wl, err := buildSLOWorkload(seed)
	if err != nil {
		return nil, err
	}
	sec := &sloSection{Network: "tinycnn", DurationS: dur.Seconds(), WallScale: wallScale}
	for _, c := range mix.Classes {
		sec.Mix = append(sec.Mix, sloMixEntry{Class: c.Name, WeightPct: c.Weight * 10, DeadlineMS: c.DeadlineMS})
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
	if sec.Static, err = driveSLOArm(staticOpts, "static 2 replicas, SLO off", sec.OfferedPerSec, dur, mix, wl, sec); err != nil {
		return nil, err
	}

	progress(fmt.Sprintf("driving SLO arm at %.0f req/s for %v", sec.OfferedPerSec, dur))
	if sec.SLO, err = driveSLOArm(sloOpts, "autoscale from 1 replica, shed at 25ms backlog", sec.OfferedPerSec, dur, mix, wl, sec); err != nil {
		return nil, err
	}

	if sec.Static.Goodput > 0 {
		sec.GoodputRatio = float64(sec.SLO.Goodput) / float64(sec.Static.Goodput)
	}
	return sec, nil
}

// buildSLOWorkload pre-builds the request bodies and the reference
// logits every response is checked against.
func buildSLOWorkload(seed uint64) (*sloWorkload, error) {
	const pool = 16
	cfg := model.DefaultConfig()
	cfg.Seed = seed
	net, err := model.Build("tinycnn", cfg)
	if err != nil {
		return nil, err
	}
	wl := &sloWorkload{}
	req := serve.InferRequest{Model: "tinycnn", ActBits: cfg.ActBits, Sparsity: &cfg.Sparsity, Seed: seed}
	if wl.bodies, err = loadgen.Bodies(req, workload.InputData(net.InputShape, pool, seed+1000), 1); err != nil {
		return nil, err
	}
	for _, in := range workload.Inputs(net.InputShape, pool, seed+1000) {
		tr, err := net.ForwardInt(in)
		if err != nil {
			return nil, err
		}
		wl.wantLogits = append(wl.wantLogits, tr.Logits().Data)
	}
	return wl, nil
}

// withServer boots a throwaway in-process server, admits (compiles) the
// model with one warm-up request outside any measured window, hands run
// the server and a client that calls its handler directly, and shuts the
// server down afterwards.
func withServer(opts serve.Options, warmup []byte, run func(*serve.Server, *http.Client) error) error {
	srv := serve.New(opts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	client := loadgen.InProcess(srv.Handler())
	if err := loadgen.Post(context.Background(), client, loadgen.Shot{Body: warmup}).Failure(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return run(srv, client)
}

// calibrateCapacity measures the static configuration's closed-loop
// throughput on a throwaway server, so the offered rate tracks the host
// instead of a hardcoded number.
func calibrateCapacity(opts serve.Options, body []byte) (float64, error) {
	var capacity float64
	err := withServer(opts, body, func(_ *serve.Server, client *http.Client) error {
		// Enough closed-loop workers to keep every replica's batcher full:
		// with dilated devices the measurement is saturation throughput, not
		// latency-bound round-trips.
		const workers = 64
		led := loadgen.NewLedger(nil)
		ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		defer cancel()
		start := time.Now()
		loadgen.Closed(ctx, workers, func(int) {
			led.Record(nil, loadgen.Post(context.Background(), client, loadgen.Shot{Body: body}), 0)
		})
		if led.Total.Accepted == 0 || led.Total.Accepted != led.Total.Sent {
			return fmt.Errorf("outcomes %v, want every request accepted", led.Categories)
		}
		capacity = float64(led.Total.Accepted) / time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return capacity, nil
}

// driveSLOArm runs one serving configuration under the shared open-loop
// workload and returns its outcome ledger; latency, and so goodput, is
// owed from each request's due time. Under overload the in-flight bound
// turns excess arrivals into client-side queueing, identically for both
// arms. Every 200 is checked against the reference logits of its body
// into sec.BitExactChecked/BitExactViolations.
func driveSLOArm(opts serve.Options, config string, rate float64, dur time.Duration,
	mix *loadgen.Mix, wl *sloWorkload, sec *sloSection) (sloArm, error) {
	arm := sloArm{Config: config, Classes: map[string]sloArmClass{}}
	err := withServer(opts, wl.bodies[0], func(srv *serve.Server, client *http.Client) error {
		led := loadgen.NewLedger(mix)
		var mu sync.Mutex // guards sec's check counters
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		defer cancel()
		loadgen.Open(ctx, rate, 512, func(n int, due time.Time) {
			c := mix.At(n)
			b := n % len(wl.bodies)
			o := loadgen.Post(context.Background(), client, loadgen.Shot{Body: wl.bodies[b], Class: c.Name, DeadlineMS: c.DeadlineMS})
			led.Record(c, o, time.Since(due))
			if o.Status != http.StatusOK {
				return
			}
			logits, _ := o.Logits() // an unreadable 200 is a violation too
			mu.Lock()
			defer mu.Unlock()
			sec.BitExactChecked++
			if len(logits) != 1 || !slices.Equal(logits[0], wl.wantLogits[b]) {
				sec.BitExactViolations++
			}
		})

		arm.Tally = led.Total
		arm.GoodputPerSec = float64(arm.Goodput) / dur.Seconds()
		for _, c := range mix.Classes {
			ct := led.Classes[c.Name]
			arm.Classes[c.Name] = sloArmClass{
				DeadlineMS: c.DeadlineMS, Sent: ct.Sent, Accepted: ct.Accepted,
				Shed: ct.Shed, Expired: ct.Expired, Goodput: ct.Goodput,
			}
		}
		if loaded := srv.Registry().Loaded(); len(loaded) > 0 {
			arm.FinalReplicas = loaded[0].Replicas
		}
		return nil
	})
	if err != nil {
		err = fmt.Errorf("%s: %w", config, err)
	}
	return arm, err
}
