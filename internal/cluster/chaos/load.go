package chaos

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"rtmap/internal/loadgen"
	"rtmap/internal/serve"
	"rtmap/internal/workload"
)

// DriveOptions shapes a closed-loop load run against the router.
type DriveOptions struct {
	// Models to cycle through (default tinycnn + tinyresnet). Workers is
	// the closed-loop client count (default 4).
	Models  []string
	Workers int
	// Variants drives that many seed-variants of each model (default 1:
	// just seed 1). Distinct variants hash independently on the ring, so
	// this is the knob that spreads one architecture's load across nodes
	// (the cluster bench uses it for its scaling arms).
	Variants int
	// Pinned dedicates Workers closed-loop clients to EVERY variant
	// instead of cycling one shared pool across all of them. The cycling
	// pool equalizes per-variant rates — the slowest owner gates every
	// worker's cycle — while pinned workers let each node run at its own
	// capacity, which is what an aggregate-throughput measurement needs.
	Pinned bool
	// Class is the request priority class sent with every request
	// ("interactive" exercises the hedging path); DeadlineMS attaches a
	// soft deadline. Both empty/zero by default.
	Class      string
	DeadlineMS int
	// Inputs is the sample count per request (default 2); Seed the
	// workload generator seed (default 7).
	Inputs int
	Seed   uint64
}

// Report is the outcome tally of one Drive run. The chaos gates are
// Errors == 0 (no accepted request was dropped: every answer is a clean
// 200, 429 or 503) and Mismatches == 0 (every 200 carried bit-exact
// logits regardless of serving node, retry or hedge).
type Report struct {
	Sent       int64
	OK         int64
	Rejected   int64 // clean backpressure: HTTP 429/503 with an error document
	Errors     int64 // transport failures and non-backpressure HTTP errors
	Mismatches int64 // 200s whose logits differ from the model's reference

	// ByCategory counts outcomes by loadgen.Outcome.Category, plus
	// "malformed" (a 200 whose body does not decode) and "mismatch".
	ByCategory map[string]int64
	// Samples holds the first few error/mismatch descriptions.
	Samples []string
}

func (r *Report) record(category string, sample string) {
	r.ByCategory[category]++
	if sample != "" && len(r.Samples) < 8 {
		r.Samples = append(r.Samples, sample)
	}
}

// Clean reports whether the run met the chaos gates.
func (r *Report) Clean() bool { return r.Errors == 0 && r.Mismatches == 0 }

// String summarizes the tally.
func (r *Report) String() string {
	return fmt.Sprintf("sent %d ok %d rejected %d errors %d mismatches %d",
		r.Sent, r.OK, r.Rejected, r.Errors, r.Mismatches)
}

// Drive runs closed-loop load through the router until ctx ends,
// checking every 200 for bit-exactness against the model's first
// accepted answer (inference is deterministic, so any divergence means
// a retry, hedge or failover corrupted a result). Requests carry ctx, so
// the ones in flight when it ends are cancelled and not counted.
func (c *Cluster) Drive(ctx context.Context, opts DriveOptions) (*Report, error) {
	if len(opts.Models) == 0 {
		opts.Models = []string{"tinycnn", "tinyresnet"}
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Inputs <= 0 {
		opts.Inputs = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	if opts.Variants <= 0 {
		opts.Variants = 1
	}

	var variants []*driveVariant
	for _, m := range opts.Models {
		sh, ok := serve.ZooShape(m)
		if !ok {
			return nil, fmt.Errorf("chaos: model %q is not in the zoo", m)
		}
		data := workload.InputData(sh, opts.Inputs, opts.Seed)
		for v := 1; v <= opts.Variants; v++ {
			bodies, err := loadgen.Bodies(serve.InferRequest{Model: m, Seed: uint64(v)}, data, opts.Inputs)
			if err != nil {
				return nil, err
			}
			variants = append(variants, &driveVariant{name: fmt.Sprintf("%s/seed%d", m, v), body: bodies[0]})
		}
	}

	var mu sync.Mutex
	report := Report{ByCategory: map[string]int64{}}
	client := &http.Client{Timeout: 30 * time.Second}

	fire := func(v *driveVariant) {
		o := loadgen.Post(ctx, client, loadgen.Shot{
			URL: c.routerURL, Body: v.body,
			Class: opts.Class, DeadlineMS: float64(opts.DeadlineMS),
		})
		category, sample := o.Category(), ""
		if category == "cancelled" {
			return // ctx ended mid-request: not a cluster outcome at all
		}
		mu.Lock()
		defer mu.Unlock()
		report.Sent++
		switch {
		case o.Status == http.StatusOK:
			logits, err := o.Logits()
			if err != nil {
				report.Errors++
				report.record("malformed", fmt.Sprintf("%s: %v", v.name, err))
				return
			}
			report.OK++
			if v.ref == nil {
				v.ref = logits
			} else if !slices.EqualFunc(v.ref, logits, slices.Equal[[]int32]) {
				report.Mismatches++
				report.record("mismatch", fmt.Sprintf("%s: logits diverged from reference", v.name))
				return
			}
		case o.Backpressure():
			report.Rejected++
		default:
			report.Errors++
			sample = fmt.Sprintf("%s: %v", v.name, o.Failure())
		}
		report.record(category, sample)
	}

	if opts.Pinned {
		var wg sync.WaitGroup
		for _, v := range variants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loadgen.Closed(ctx, opts.Workers, func(int) { fire(v) })
			}()
		}
		wg.Wait()
	} else {
		loadgen.Closed(ctx, opts.Workers, func(i int) { fire(variants[i%len(variants)]) })
	}
	return &report, nil
}

// driveVariant is one (model, seed) request body the driver cycles, and
// the logits of its first accepted answer: the bit-exact reference every
// later 200 is compared with (guarded by Drive's mutex).
type driveVariant struct {
	name string // model/seedN
	body []byte
	ref  [][]int32
}
