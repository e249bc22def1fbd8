package cluster

import (
	"sync"
	"time"
)

// BreakerState is one node's circuit-breaker position.
//
//	closed    attempts flow normally.
//	open      Threshold consecutive attempt failures: no attempts until
//	          Cooloff has elapsed. A request whose every owner is open
//	          (or down) is shed with 503 + Retry-After instead of
//	          hanging on a doomed dial.
//	halfOpen  Cooloff elapsed: exactly one trial attempt is admitted;
//	          its success closes the breaker, its failure re-opens it
//	          for another Cooloff.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the exposition name of the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// BreakerOptions configures the per-node breakers.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens a breaker
	// (default 5). Cooloff is how long an open breaker rejects attempts
	// before admitting a half-open trial (default 1s).
	Threshold int
	Cooloff   time.Duration
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 5
	}
	if o.Cooloff <= 0 {
		o.Cooloff = time.Second
	}
	return o
}

// Trial identifies the half-open trial an Allow admitted; zero for an
// attempt a closed breaker let through. The attempt hands it back to
// Observe or CancelTrial, so only the trial's own outcome can release
// the trial slot.
type Trial uint64

// breaker is one node's circuit state.
type breaker struct {
	state    BreakerState
	failures int
	openedAt time.Time
	trial    Trial // half-open: the trial in flight; zero when none is
}

// Breakers is the per-node circuit-breaker table.
type Breakers struct {
	opts BreakerOptions

	mu     sync.Mutex
	m      map[string]*breaker
	trials Trial // the last Trial issued, across nodes and resets

	opens  int64 // transitions to open, cumulative
	resets int64 // Reset calls (node rejoin)
}

// NewBreakers builds a breaker table for the given nodes.
func NewBreakers(nodes []string, opts BreakerOptions) *Breakers {
	b := &Breakers{opts: opts.withDefaults(), m: make(map[string]*breaker, len(nodes))}
	for _, n := range nodes {
		b.m[n] = &breaker{}
	}
	return b
}

// Allow reports whether an attempt against node may proceed right now,
// and which half-open trial it is (zero when the breaker is closed). An
// open breaker past its cooloff moves to half-open and admits exactly
// one trial; concurrent callers during the trial are refused.
func (b *Breakers) Allow(node string, now time.Time) (Trial, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[node]
	if br == nil {
		return 0, false
	}
	switch br.state {
	case BreakerClosed:
		return 0, true
	case BreakerOpen:
		if now.Sub(br.openedAt) < b.opts.Cooloff {
			return 0, false
		}
		br.state = BreakerHalfOpen
	case BreakerHalfOpen:
		if br.trial != 0 {
			return 0, false
		}
	}
	b.trials++
	br.trial = b.trials
	return br.trial, true
}

// CancelTrial releases the half-open trial t whose attempt never reached
// an outcome — budget exhaustion, backoff cancellation, a dropped hedge
// candidate, or the router's own context ending. Every admitted attempt
// that never runs must be cancelled with the Trial its Allow returned;
// otherwise a trial sticks and the node is refused forever. Any other
// Trial — zero, or one from an earlier half-open period — releases
// nothing: the attempt it admitted is not the trial in flight. The
// breaker stays half-open, so the next Allow admits a fresh trial.
func (b *Breakers) CancelTrial(node string, t Trial) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if br := b.m[node]; br != nil && t != 0 && br.trial == t {
		br.trial = 0
	}
}

// Observe applies the outcome of an attempt Allow admitted as t. Only
// transport-level failures and node-down rejections should be reported
// as failures — a 503 from a shedding node is the node protecting
// itself, not the node dying; tripping the breaker on it would amplify
// the overload onto the other owners (the caller makes that
// distinction). Any success closes the breaker. A failure counts toward
// Threshold while closed and re-opens a half-open breaker only when it is
// the trial's own; a failure of an attempt admitted before the breaker
// opened changes nothing once it has.
func (b *Breakers) Observe(node string, t Trial, ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[node]
	if br == nil {
		return
	}
	switch {
	case ok:
		br.state = BreakerClosed
		br.failures = 0
		br.trial = 0
	case t != 0 && br.trial == t:
		br.trial = 0
		br.state = BreakerOpen
		br.openedAt = now
		b.opens++
	case br.state == BreakerClosed:
		br.failures++
		if br.failures >= b.opts.Threshold {
			br.state = BreakerOpen
			br.openedAt = now
			b.opens++
		}
	}
}

// Reset returns a node's breaker to the clean closed state. The health
// tracker calls it on the down → probation transition so a rejoining
// node is never punished for the failures its death accumulated.
func (b *Breakers) Reset(node string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if br := b.m[node]; br != nil {
		*br = breaker{}
		b.resets++
	}
}

// State returns the node's current breaker state (open for unknown).
func (b *Breakers) State(node string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if br := b.m[node]; br != nil {
		return br.state
	}
	return BreakerOpen
}

// Stats returns cumulative open transitions and rejoin resets.
func (b *Breakers) Stats() (opens, resets int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.resets
}
