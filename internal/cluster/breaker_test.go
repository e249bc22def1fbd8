package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestBreakerOpensAtThresholdAndRecovers(t *testing.T) {
	const n = "http://n:1"
	b := NewBreakers([]string{n}, BreakerOptions{Threshold: 3, Cooloff: 100 * time.Millisecond})
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if !b.Allow(n, now) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Observe(n, false, now)
	}
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v below threshold, want closed", b.State(n))
	}
	b.Allow(n, now)
	b.Observe(n, false, now) // third consecutive failure
	if b.State(n) != BreakerOpen {
		t.Fatalf("state %v at threshold, want open", b.State(n))
	}
	if b.Allow(n, now.Add(50*time.Millisecond)) {
		t.Fatal("open breaker admitted an attempt inside the cooloff")
	}

	// Cooloff elapsed: exactly one half-open trial.
	later := now.Add(150 * time.Millisecond)
	if !b.Allow(n, later) {
		t.Fatal("cooled-off breaker refused the half-open trial")
	}
	if b.Allow(n, later) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	// Trial fails: open again for another full cooloff.
	b.Observe(n, false, later)
	if b.State(n) != BreakerOpen || b.Allow(n, later.Add(50*time.Millisecond)) {
		t.Fatal("failed trial did not re-open the breaker")
	}
	// Next trial succeeds: closed, failures forgotten.
	again := later.Add(150 * time.Millisecond)
	if !b.Allow(n, again) {
		t.Fatal("second trial refused")
	}
	b.Observe(n, true, again)
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v after successful trial, want closed", b.State(n))
	}
	opens, _ := b.Stats()
	if opens != 2 {
		t.Fatalf("opens = %d, want 2", opens)
	}
}

// TestBreakerResetGivesRejoinersCleanSlate is the regression test for
// node rejoin hygiene: a node that died with an open breaker must come
// back from probation with a fully clean breaker — closed state AND a
// zero failure count, so one post-rejoin hiccup cannot instantly
// re-open it.
func TestBreakerResetGivesRejoinersCleanSlate(t *testing.T) {
	const n = "http://n:1"
	b := NewBreakers([]string{n}, BreakerOptions{Threshold: 3, Cooloff: time.Hour})
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.Observe(n, false, now)
	}
	if b.State(n) != BreakerOpen {
		t.Fatal("setup: breaker should be open")
	}

	b.Reset(n) // what the health tracker's rejoin hook does
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v after Reset, want closed", b.State(n))
	}
	if !b.Allow(n, now) {
		t.Fatal("reset breaker refused traffic")
	}
	// Clean slate means the failure counter restarted too: threshold-1
	// new failures must not open it.
	b.Observe(n, false, now)
	b.Observe(n, false, now)
	if b.State(n) != BreakerClosed {
		t.Fatal("Reset kept the old failure count: 2 post-rejoin failures re-opened a threshold-3 breaker")
	}
	_, resets := b.Stats()
	if resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
}

// TestBreakerCancelTrialReleasesAdmission: an Allow that admitted a
// half-open trial whose attempt never produces an outcome (budget
// refusal, cancellation) must be releasable, or the node is refused
// forever.
func TestBreakerCancelTrialReleasesAdmission(t *testing.T) {
	const n = "http://n:1"
	b := NewBreakers([]string{n}, BreakerOptions{Threshold: 1, Cooloff: 100 * time.Millisecond})
	now := time.Unix(1000, 0)
	b.Observe(n, false, now) // open
	later := now.Add(150 * time.Millisecond)
	if !b.Allow(n, later) {
		t.Fatal("cooled-off breaker refused the trial")
	}
	if b.Allow(n, later) {
		t.Fatal("second concurrent trial admitted")
	}
	// The trial's attempt never ran; without CancelTrial this admission
	// would be leaked and Allow would refuse the node forever.
	b.CancelTrial(n)
	if !b.Allow(n, later) {
		t.Fatal("cancelled trial not released: node permanently refused")
	}
	b.Observe(n, true, later)
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v after successful trial, want closed", b.State(n))
	}
	// On a closed breaker CancelTrial is a no-op, not a state change.
	b.CancelTrial(n)
	if b.State(n) != BreakerClosed || !b.Allow(n, later) {
		t.Fatal("CancelTrial disturbed a closed breaker")
	}
}

func TestBreakerUnknownNodeRefused(t *testing.T) {
	b := NewBreakers([]string{"http://n:1"}, BreakerOptions{})
	if b.Allow("http://typo:1", time.Now()) {
		t.Fatal("unknown node admitted")
	}
	if b.State("http://typo:1") != BreakerOpen {
		t.Fatal("unknown node should read as open")
	}
}

// TestBreakerSchedules drives three nodes' breakers through seeded random
// scripts on a virtual clock: Allow at random times, every admitted
// attempt resolved by Observe(ok), Observe(fail) or CancelTrial in random
// order, and a Reset now and then. After every call each breaker must
// match breakerModel, the documented state machine; at quiescence no
// breaker may be left in trial and the open and reset counts must match
// the model's. A failure names its seed: runBreakerScript(seed) replays
// it.
func TestBreakerSchedules(t *testing.T) {
	const scripts = 2500
	for seed := int64(1); seed <= scripts; seed++ {
		if msg := runBreakerScript(seed); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// breakerModel is one node's breaker as BreakerState documents it: open
// at Threshold consecutive failures, refuse inside Cooloff, then admit
// exactly one half-open trial, which closes the breaker on success and
// re-opens it on failure.
type breakerModel struct {
	state    BreakerState
	failures int
	openedAt time.Time
	inTrial  bool
}

// runBreakerScript plays one random script and returns the first
// divergence from the model ("" when there is none).
func runBreakerScript(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	opts := BreakerOptions{
		Threshold: 1 + rng.Intn(4),
		Cooloff:   time.Duration(1+rng.Intn(20)) * time.Millisecond,
	}
	nodes := []string{"n0", "n1", "n2"}
	b := NewBreakers(nodes, opts)
	model := map[string]*breakerModel{}
	for _, n := range nodes {
		model[n] = &breakerModel{}
	}
	now := time.Unix(1000, 0)
	var opens, resets int64
	var inflight []string // the node of every admitted, unresolved attempt

	open := func(m *breakerModel) {
		m.state, m.openedAt = BreakerOpen, now
		opens++
	}
	agree := func() string {
		for _, n := range nodes {
			m, br := model[n], b.m[n]
			if got := b.State(n); got != m.state || br.failures != m.failures || br.inTrial != m.inTrial {
				return fmt.Sprintf("%s is %v (failures %d, in trial %v), model %v (failures %d, in trial %v)",
					n, got, br.failures, br.inTrial, m.state, m.failures, m.inTrial)
			}
		}
		if o, r := b.Stats(); o != opens || r != resets {
			return fmt.Sprintf("Stats() = %d opens, %d resets; model %d, %d", o, r, opens, resets)
		}
		return ""
	}

	for step, steps := 0, 20+rng.Intn(80); step < steps || len(inflight) > 0; step++ {
		var what string
		switch op := rng.Intn(10); {
		case step >= steps || op < 3 && len(inflight) > 0:
			// Resolve a random in-flight attempt.
			i := rng.Intn(len(inflight))
			n := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			m := model[n]
			switch rng.Intn(3) {
			case 0:
				what = "Observe(" + n + ", ok)"
				b.Observe(n, true, now)
				m.state, m.failures, m.inTrial = BreakerClosed, 0, false
			case 1:
				what = "Observe(" + n + ", fail)"
				b.Observe(n, false, now)
				m.inTrial = false
				switch m.state {
				case BreakerHalfOpen:
					open(m)
				case BreakerClosed:
					if m.failures++; m.failures >= opts.Threshold {
						open(m)
					}
				}
			default:
				what = "CancelTrial(" + n + ")"
				b.CancelTrial(n)
				if m.state == BreakerHalfOpen {
					m.inTrial = false
				}
			}
		case op < 7:
			n := nodes[rng.Intn(len(nodes))]
			m := model[n]
			want := false
			switch m.state {
			case BreakerClosed:
				want = true
			case BreakerOpen:
				if now.Sub(m.openedAt) >= opts.Cooloff {
					m.state, m.inTrial, want = BreakerHalfOpen, true, true
				}
			case BreakerHalfOpen:
				if !m.inTrial {
					m.inTrial, want = true, true
				}
			}
			what = "Allow(" + n + ")"
			if got := b.Allow(n, now); got != want {
				return fmt.Sprintf("step %d at +%v: %s = %v, model %v", step, now.Sub(time.Unix(1000, 0)), what, got, want)
			}
			if want {
				inflight = append(inflight, n)
			}
		case op < 9:
			now = now.Add(time.Duration(rng.Int63n(int64(opts.Cooloff))))
			continue
		default:
			if rng.Intn(3) > 0 {
				continue
			}
			n := nodes[rng.Intn(len(nodes))]
			what = "Reset(" + n + ")"
			b.Reset(n)
			*model[n] = breakerModel{}
			resets++
		}
		if msg := agree(); msg != "" {
			return fmt.Sprintf("step %d at +%v, after %s: %s", step, now.Sub(time.Unix(1000, 0)), what, msg)
		}
	}
	for _, n := range nodes {
		if b.m[n].inTrial {
			return fmt.Sprintf("quiescent, but %s is left in trial", n)
		}
	}
	return agree()
}
