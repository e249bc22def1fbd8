package sim

import (
	"math"
	"testing"

	"rtmap/internal/model"
)

// TestPricingRelations holds the one batch cost model to the identities
// every caller relies on, exactly (==, not within rounding): a one-stage
// pipeline is the single-device analysis, replication is the batch of
// the largest share, a one-stage pipeline's batch is its stage's batch,
// stage wear partitions LayerWrites, and degenerate counts clamp to 1.
func TestPricingRelations(t *testing.T) {
	cfg := model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1}
	nets := []*model.Network{model.TinyCNN(cfg), model.TinyResNet(cfg), model.VGG9(cfg)}
	for _, net := range nets {
		c := compileNet(t, net, false)
		rep := Analyze(c)
		writes := LayerWrites(c)
		for k := 1; k <= 4; k++ {
			pr, err := AnalyzePipeline(c, rep, k)
			if err != nil {
				t.Fatal(err)
			}
			name := net.Name
			if len(pr.Stages) != k || len(pr.Shard.Stages) != k {
				t.Fatalf("%s k=%d: %d stage reports for %d plan stages", name, k, len(pr.Stages), len(pr.Shard.Stages))
			}
			if k == 1 {
				if pr.FillNS != rep.TotalLatencyNS {
					t.Errorf("%s: one-stage fill %g ns, analysis %g ns", name, pr.FillNS, rep.TotalLatencyNS)
				}
				if e := pr.Batch(1, 1).EnergyPJ; e != rep.Total.TotalPJ() {
					t.Errorf("%s: one-stage per-sample energy %g pJ, analysis %g pJ", name, e, rep.Total.TotalPJ())
				}
			}

			var sum float64
			for si, sr := range pr.Stages {
				var want float64
				for _, w := range writes[sr.Lo:sr.Hi] {
					want += w
				}
				if sr.Writes != want {
					t.Errorf("%s k=%d stage %d: writes %g, LayerWrites sum %g", name, k, si, sr.Writes, want)
				}
				sum += want
			}
			if pr.PerSampleWrites != sum {
				t.Errorf("%s k=%d: pipeline writes %g, stage sum %g", name, k, pr.PerSampleWrites, sum)
			}

			for _, b := range []int{0, 1, 3, 8, 64} {
				for _, r := range []int{0, 1, 2, 3, 8} {
					got := pr.Batch(b, r)
					bb, rr := max(b, 1), max(r, 1)
					if got.Batch != bb || got.Replicas != rr {
						t.Errorf("%s k=%d: Batch(%d, %d) reports %d samples on %d replicas", name, k, b, r, got.Batch, got.Replicas)
					}
					if got != pr.Batch(bb, rr) {
						t.Errorf("%s k=%d: Batch(%d, %d) does not clamp to Batch(%d, %d)", name, k, b, r, bb, rr)
					}
					share := pr.Batch((bb+rr-1)/rr, 1)
					if got.LatencyNS != share.LatencyNS {
						t.Errorf("%s k=%d b=%d r=%d: latency %g ns, largest share alone %g ns", name, k, b, r, got.LatencyNS, share.LatencyNS)
					}
					if got.SteadyNS != pr.BottleneckNS/float64(rr) {
						t.Errorf("%s k=%d r=%d: steady %g ns, bottleneck/r %g ns", name, k, r, got.SteadyNS, pr.BottleneckNS/float64(rr))
					}
					if got.EnergyPJ != float64(bb)*pr.PerSampleEnergyPJ || got.Writes != float64(bb)*pr.PerSampleWrites {
						t.Errorf("%s k=%d b=%d r=%d: energy %g pJ / writes %g not linear in the sample count", name, k, b, r, got.EnergyPJ, got.Writes)
					}
					if k == 1 && r <= 1 {
						if st := pr.Stages[0].Batch(b); got != st {
							t.Errorf("%s b=%d: one-stage pipeline batch %+v, its stage's %+v", name, b, got, st)
						}
					}
				}
			}
		}
	}
}

// onePipeline compiles TinyCNN under cfg and prices it on one device.
func onePipeline(t *testing.T, cfg model.Config) (*Report, *PipelineReport) {
	t.Helper()
	c := compileNet(t, model.TinyCNN(cfg), false)
	rep := Analyze(c)
	pr, err := AnalyzePipeline(c, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rep, pr
}

// TestAnalyzeBatch prices batches on one device: a batch of one is the
// single-inference analysis, each further sample adds the marginal
// latency, energy is linear and the amortized latency falls.
func TestAnalyzeBatch(t *testing.T) {
	rep, pr := onePipeline(t, model.Config{ActBits: 4, Sparsity: 0.5, Seed: 3})

	one := pr.Batch(1, 1)
	if one.LatencyNS != rep.TotalLatencyNS {
		t.Fatalf("batch of 1 costs %g ns, single-inference report says %g", one.LatencyNS, rep.TotalLatencyNS)
	}
	if one.EnergyPJ != rep.Total.TotalPJ() {
		t.Fatalf("batch of 1 energy %g, report %g", one.EnergyPJ, rep.Total.TotalPJ())
	}

	// Marginal latency must be positive but no more than a full
	// serialized inference (pipelining can only help).
	if one.MarginalNS <= 0 || one.MarginalNS > rep.TotalLatencyNS {
		t.Fatalf("marginal %g ns outside (0, %g]", one.MarginalNS, rep.TotalLatencyNS)
	}

	// Linearity in the marginal term, and strict monotonicity.
	prev := one
	for _, b := range []int{2, 4, 16} {
		br := pr.Batch(b, 1)
		want := one.FirstNS + float64(b-1)*one.MarginalNS
		if diff := br.LatencyNS - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("batch %d latency %g, want %g", b, br.LatencyNS, want)
		}
		if br.LatencyNS <= prev.LatencyNS {
			t.Fatalf("batch %d not slower than batch %d", b, prev.Batch)
		}
		if br.EnergyPJ != float64(b)*one.EnergyPJ {
			t.Fatalf("batch %d energy %g, want linear %g", b, br.EnergyPJ, float64(b)*one.EnergyPJ)
		}
		// Amortized per-sample latency must improve with batch size.
		if br.LatencyNS/float64(b) >= prev.LatencyNS/float64(prev.Batch) {
			t.Fatalf("batch %d per-sample %g ns did not improve on %g", b, br.LatencyNS/float64(b), prev.LatencyNS/float64(prev.Batch))
		}
		prev = br
	}

	if got := pr.Batch(0, 1); got.LatencyNS != one.LatencyNS {
		t.Fatalf("batch 0 should clamp to 1")
	}
}

// One replica must price exactly like a plain batch: replication is the
// identity at R=1, the same way a one-stage pipeline is its stage.
func TestReplicatedBatchSingleReplicaMatchesBatch(t *testing.T) {
	_, pr := onePipeline(t, model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	for _, b := range []int{1, 2, 7, 32} {
		br := pr.Stages[0].Batch(b)
		rr := pr.Batch(b, 1)
		if rr.LatencyNS != br.LatencyNS {
			t.Fatalf("b=%d: replicated latency %g != batch latency %g", b, rr.LatencyNS, br.LatencyNS)
		}
		if rr.SteadyNS != br.MarginalNS {
			t.Fatalf("b=%d: steady %g != marginal %g", b, rr.SteadyNS, br.MarginalNS)
		}
		if rr.EnergyPJ != br.EnergyPJ {
			t.Fatalf("b=%d: energy %g != %g", b, rr.EnergyPJ, br.EnergyPJ)
		}
	}
}

// Replication splits the batch: latency tracks the largest share, the
// aggregate steady-state interval divides by R, and energy stays a
// function of the sample count alone.
func TestReplicatedBatchScaling(t *testing.T) {
	_, pr := onePipeline(t, model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	const b = 32
	base := pr.Batch(b, 1)
	for _, r := range []int{2, 4, 8} {
		rr := pr.Batch(b, r)
		want := pr.Batch((b+r-1)/r, 1).LatencyNS
		if rr.LatencyNS != want {
			t.Fatalf("r=%d: latency %g, want ceil-share pricing %g", r, rr.LatencyNS, want)
		}
		if got, want := rr.SteadyNS, base.SteadyNS/float64(r); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("r=%d: steady %g, want %g", r, got, want)
		}
		if rr.EnergyPJ != base.EnergyPJ {
			t.Fatalf("r=%d: energy %g changed with replica count (want %g)", r, rr.EnergyPJ, base.EnergyPJ)
		}
		if sp := rr.InfersPerSec(); math.Abs(sp-float64(r)*base.InfersPerSec()) > 1e-6*sp {
			t.Fatalf("r=%d: aggregate throughput %g is not %d× the single-replica %g",
				r, sp, r, base.InfersPerSec())
		}
	}
}

// Degenerate inputs clamp instead of dividing by zero or indexing out of
// range.
func TestReplicatedBatchClamps(t *testing.T) {
	_, pr := onePipeline(t, model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	rr := pr.Batch(0, 0)
	if rr.Batch != 1 || rr.Replicas != 1 || rr.LatencyNS <= 0 {
		t.Fatalf("clamped report %+v", rr)
	}
	// More replicas than samples: idle replicas don't speed up the batch.
	if one := pr.Batch(1, 8); one.LatencyNS != pr.Batch(1, 1).LatencyNS {
		t.Fatalf("1 sample on 8 replicas priced %g, want single-sample latency", one.LatencyNS)
	}
}
