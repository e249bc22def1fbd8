package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestRetryBudgetBoundsAmplification(t *testing.T) {
	rb := NewRetryBudget(0.1, 4)
	const m = "tinycnn"

	// A fresh bucket starts at the burst allowance so cold-start
	// failures can still fail over.
	for i := 0; i < 4; i++ {
		if !rb.Spend(m) {
			t.Fatalf("spend %d refused inside the burst allowance", i)
		}
	}
	if rb.Spend(m) {
		t.Fatal("spend beyond the burst allowance succeeded")
	}

	// 10 accepted requests earn one retry token.
	for i := 0; i < 9; i++ {
		rb.Earn(m)
	}
	if rb.Spend(m) {
		t.Fatal("0.9 tokens spent as a whole token")
	}
	rb.Earn(m)
	if !rb.Spend(m) {
		t.Fatal("earned token refused")
	}

	// The balance caps at the burst.
	for i := 0; i < 1000; i++ {
		rb.Earn(m)
	}
	if got := rb.Balance(m); got != 4 {
		t.Fatalf("balance %v after heavy earning, want the burst cap 4", got)
	}

	// Budgets are per model.
	if !rb.Spend("othernet") {
		t.Fatal("fresh model shares another model's empty bucket")
	}
}

func TestLatenciesP95(t *testing.T) {
	l := NewLatencies()
	const m = "tinycnn"
	if got := l.P95(m, 25*time.Millisecond); got != 25*time.Millisecond {
		t.Fatalf("empty window p95 = %v, want the fallback", got)
	}
	// 100 samples 1..100ms: nearest-rank p95 = 95ms.
	for i := 1; i <= 100; i++ {
		l.Observe(m, time.Duration(i)*time.Millisecond)
	}
	got := l.P95(m, 0)
	if got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ~95ms", got)
	}
	// The window slides: a latency regression shows up after enough
	// fresh samples displace the old ones.
	for i := 0; i < 256; i++ {
		l.Observe(m, 500*time.Millisecond)
	}
	if got := l.P95(m, 0); got != 500*time.Millisecond {
		t.Fatalf("post-regression p95 = %v, want 500ms", got)
	}
}

// TestRetryBudgetSchedules plays seeded random Earn/Spend scripts over
// several models and holds each bucket to an exact model: earning 1/k
// tokens at a time, the balance is a whole number of k-ths, so float
// accumulation cannot blur whether a spend is affordable (ten 0.1-earns
// must buy one). Every Spend verdict and balance must match it, the
// balance stays in [0, Burst], and no model spends more than
// Burst + EarnPerRequest·earns. A failure names its seed:
// runBudgetScript(seed) replays it.
func TestRetryBudgetSchedules(t *testing.T) {
	const scripts = 2500
	for seed := int64(1); seed <= scripts; seed++ {
		if msg := runBudgetScript(seed); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// runBudgetScript plays one random script and returns the first
// violation ("" when there is none).
func runBudgetScript(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	k := [...]int{1, 2, 4, 5, 8, 10}[rng.Intn(6)] // earn 1/k per request
	burst := 1 + rng.Intn(6)
	rb := NewRetryBudget(1/float64(k), float64(burst))
	models := []string{"m0", "m1", "m2", "m3"}[:1+rng.Intn(4)]
	units := map[string]int{} // balance in k-ths; a fresh bucket holds the burst
	earns, spends := map[string]int{}, map[string]int{}
	for _, m := range models {
		units[m] = burst * k
	}
	for step, steps := 0, 50+rng.Intn(200); step < steps; step++ {
		m := models[rng.Intn(len(models))]
		if rng.Intn(3) > 0 {
			rb.Earn(m)
			earns[m]++
			units[m] = min(units[m]+1, burst*k)
		} else {
			want := units[m] >= k
			if got := rb.Spend(m); got != want {
				return fmt.Sprintf("step %d: Spend(%s) = %v at %d/%d tokens, model %v", step, m, got, units[m], k, want)
			}
			if want {
				spends[m]++
				units[m] -= k
			}
		}
		bal := rb.Balance(m)
		if bal < 0 || bal > float64(burst) {
			return fmt.Sprintf("step %d: %s balance %v outside [0, %d]", step, m, bal, burst)
		}
		if want := float64(units[m]) / float64(k); math.Abs(bal-want) > 1e-6 {
			return fmt.Sprintf("step %d: %s balance %v, model %v", step, m, bal, want)
		}
		if float64(spends[m]) > float64(burst)+float64(earns[m])/float64(k)+1e-9 {
			return fmt.Sprintf("step %d: %s spent %d with burst %d and %d earns of 1/%d", step, m, spends[m], burst, earns[m], k)
		}
	}
	return ""
}
