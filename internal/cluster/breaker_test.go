package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// admits reports whether Allow admits an attempt, dropping its Trial.
func admits(b *Breakers, node string, now time.Time) bool {
	_, ok := b.Allow(node, now)
	return ok
}

func TestBreakerOpensAtThresholdAndRecovers(t *testing.T) {
	const n = "http://n:1"
	b := NewBreakers([]string{n}, BreakerOptions{Threshold: 3, Cooloff: 100 * time.Millisecond})
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		trial, ok := b.Allow(n, now)
		if !ok || trial != 0 {
			t.Fatalf("closed breaker refused attempt %d, or admitted it as trial %d", i, trial)
		}
		b.Observe(n, trial, false, now)
	}
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v below threshold, want closed", b.State(n))
	}
	b.Observe(n, 0, false, now) // third consecutive failure
	if b.State(n) != BreakerOpen {
		t.Fatalf("state %v at threshold, want open", b.State(n))
	}
	if admits(b, n, now.Add(50*time.Millisecond)) {
		t.Fatal("open breaker admitted an attempt inside the cooloff")
	}

	// Cooloff elapsed: exactly one half-open trial.
	later := now.Add(150 * time.Millisecond)
	trial, ok := b.Allow(n, later)
	if !ok || trial == 0 {
		t.Fatalf("cooled-off breaker refused the half-open trial (admitted %v as trial %d)", ok, trial)
	}
	if admits(b, n, later) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	// Trial fails: open again for another full cooloff.
	b.Observe(n, trial, false, later)
	if b.State(n) != BreakerOpen || admits(b, n, later.Add(50*time.Millisecond)) {
		t.Fatal("failed trial did not re-open the breaker")
	}
	// Next trial succeeds: closed, failures forgotten.
	again := later.Add(150 * time.Millisecond)
	second, ok := b.Allow(n, again)
	if !ok || second == trial {
		t.Fatalf("second trial refused, or issued the first trial's identity %d", second)
	}
	b.Observe(n, second, true, again)
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
		b.Observe(n, 0, false, now)
	}
	if b.State(n) != BreakerOpen {
		t.Fatal("setup: breaker should be open")
	}

	b.Reset(n) // what the health tracker's rejoin hook does
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v after Reset, want closed", b.State(n))
	}
	if !admits(b, n, now) {
		t.Fatal("reset breaker refused traffic")
	}
	// Clean slate means the failure counter restarted too: threshold-1
	// new failures must not open it.
	b.Observe(n, 0, false, now)
	b.Observe(n, 0, false, now)
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
	b.Observe(n, 0, false, now) // open
	later := now.Add(150 * time.Millisecond)
	trial, ok := b.Allow(n, later)
	if !ok {
		t.Fatal("cooled-off breaker refused the trial")
	}
	if admits(b, n, later) {
		t.Fatal("second concurrent trial admitted")
	}
	// The trial's attempt never ran; without CancelTrial this admission
	// would be leaked and Allow would refuse the node forever.
	b.CancelTrial(n, trial)
	trial, ok = b.Allow(n, later)
	if !ok {
		t.Fatal("cancelled trial not released: node permanently refused")
	}
	b.Observe(n, trial, true, later)
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v after successful trial, want closed", b.State(n))
	}
	// On a closed breaker CancelTrial is a no-op, not a state change.
	b.CancelTrial(n, trial)
	if b.State(n) != BreakerClosed || !admits(b, n, later) {
		t.Fatal("CancelTrial disturbed a closed breaker")
	}
}

// TestBreakerStaleCancelKeepsTrial is the leaked-trial sequence the
// seeded schedules found: an attempt admitted while the breaker was
// closed is cancelled (or fails) after the breaker opened, cooled off and
// admitted its half-open trial. That attempt is not the trial, so the
// trial must stay held — otherwise Allow admits a second concurrent
// trial. The same holds for a trial of an earlier half-open period.
func TestBreakerStaleCancelKeepsTrial(t *testing.T) {
	const n = "http://n:1"
	b := NewBreakers([]string{n}, BreakerOptions{Threshold: 1, Cooloff: 100 * time.Millisecond})
	now := time.Unix(1000, 0)
	stale, _ := b.Allow(n, now) // closed era: admitted, not a trial
	b.Observe(n, 0, false, now) // another attempt's failure opens it
	later := now.Add(150 * time.Millisecond)
	trial, ok := b.Allow(n, later)
	if !ok {
		t.Fatal("cooled-off breaker refused the trial")
	}

	b.CancelTrial(n, stale)
	if admits(b, n, later) {
		t.Fatal("a closed-era cancel released the half-open trial: second concurrent trial admitted")
	}
	b.Observe(n, stale, false, later)
	if b.State(n) != BreakerHalfOpen || admits(b, n, later) {
		t.Fatalf("a closed-era failure moved the half-open breaker to %v or released its trial", b.State(n))
	}

	// An earlier period's trial: a success closes the breaker under the
	// first trial, a failure re-opens it, and a second trial goes out.
	b.Observe(n, stale, true, later)
	b.Observe(n, 0, false, later)
	again := later.Add(150 * time.Millisecond)
	second, ok := b.Allow(n, again)
	if !ok {
		t.Fatal("cooled-off breaker refused the second trial")
	}
	b.CancelTrial(n, trial)
	b.Observe(n, trial, false, again)
	if b.State(n) != BreakerHalfOpen || admits(b, n, again) {
		t.Fatal("the first trial's cancel or failure released the second trial")
	}
	b.Observe(n, second, true, again)
	if b.State(n) != BreakerClosed {
		t.Fatalf("state %v after the second trial succeeded, want closed", b.State(n))
	}
}

func TestBreakerUnknownNodeRefused(t *testing.T) {
	b := NewBreakers([]string{"http://n:1"}, BreakerOptions{})
	if admits(b, "http://typo:1", time.Now()) {
		t.Fatal("unknown node admitted")
	}
	if b.State("http://typo:1") != BreakerOpen {
		t.Fatal("unknown node should read as open")
	}
}

// TestBreakerSchedules drives three nodes' breakers through seeded random
// scripts on a virtual clock: Allow at random times, every admitted
// attempt resolved by Observe(ok), Observe(fail) or CancelTrial with its
// own Trial in random order, and a Reset now and then. After every call
// each breaker must match breakerModel, the documented state machine —
// in which only the trial's own cancel or failure releases the trial,
// however late an attempt admitted in an earlier period resolves; at
// quiescence no breaker may be left in trial and the open and reset
// counts must match the model's. A failure names its seed: runBreakerScript(seed) replays
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
// re-opens it on failure. trial is the Trial Allow issued for it.
type breakerModel struct {
	state    BreakerState
	failures int
	openedAt time.Time
	trial    Trial
}

// admitted is one admitted, unresolved attempt of a script.
type admitted struct {
	node  string
	trial Trial
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
	var inflight []admitted

	open := func(m *breakerModel) {
		m.state, m.openedAt = BreakerOpen, now
		opens++
	}
	agree := func() string {
		for _, n := range nodes {
			m, br := model[n], b.m[n]
			if got := b.State(n); got != m.state || br.failures != m.failures || br.trial != m.trial {
				return fmt.Sprintf("%s is %v (failures %d, trial %d), model %v (failures %d, trial %d)",
					n, got, br.failures, br.trial, m.state, m.failures, m.trial)
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
			a := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			m, mine := model[a.node], a.trial != 0 && a.trial == model[a.node].trial
			switch rng.Intn(3) {
			case 0:
				what = fmt.Sprintf("Observe(%s, %d, ok)", a.node, a.trial)
				b.Observe(a.node, a.trial, true, now)
				m.state, m.failures, m.trial = BreakerClosed, 0, 0
			case 1:
				what = fmt.Sprintf("Observe(%s, %d, fail)", a.node, a.trial)
				b.Observe(a.node, a.trial, false, now)
				switch {
				case mine:
					m.trial = 0
					open(m)
				case m.state == BreakerClosed:
					if m.failures++; m.failures >= opts.Threshold {
						open(m)
					}
				}
			default:
				what = fmt.Sprintf("CancelTrial(%s, %d)", a.node, a.trial)
				b.CancelTrial(a.node, a.trial)
				if mine {
					m.trial = 0
				}
			}
		case op < 7:
			n := nodes[rng.Intn(len(nodes))]
			m := model[n]
			want, wantTrial := false, false
			switch m.state {
			case BreakerClosed:
				want = true
			case BreakerOpen:
				if now.Sub(m.openedAt) >= opts.Cooloff {
					m.state, want, wantTrial = BreakerHalfOpen, true, true
				}
			case BreakerHalfOpen:
				want, wantTrial = m.trial == 0, m.trial == 0
			}
			what = "Allow(" + n + ")"
			trial, got := b.Allow(n, now)
			if got != want || (trial != 0) != wantTrial {
				return fmt.Sprintf("step %d at +%v: %s = %d, %v; model admits %v, as a trial %v",
					step, now.Sub(time.Unix(1000, 0)), what, trial, got, want, wantTrial)
			}
			if wantTrial {
				m.trial = trial
			}
			if want {
				inflight = append(inflight, admitted{n, trial})
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
		if b.m[n].trial != 0 {
			return fmt.Sprintf("quiescent, but %s is left in trial", n)
		}
	}
	return agree()
}
