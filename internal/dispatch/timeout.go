package dispatch

import "time"

// Per-class attempt-timeout defaults for the cluster router: how long one
// proxied attempt against one node may take before the router gives up on
// that node and (policy permitting) tries the next owner. Interactive
// traffic fails over fast; bulk traffic tolerates long service times
// (large batches under wall-time dilation) rather than churning retries.
const (
	DefaultTimeoutInteractive = 2 * time.Second
	DefaultTimeoutStandard    = 10 * time.Second
	DefaultTimeoutBulk        = 60 * time.Second
)

// AttemptTimeouts carries the per-class attempt-timeout bases the router
// derives per-request timeouts from. Zero fields select the defaults.
type AttemptTimeouts struct {
	Interactive time.Duration
	Standard    time.Duration
	Bulk        time.Duration
}

// base returns the class's configured base timeout.
func (t AttemptTimeouts) base(c Class) time.Duration {
	pick := func(v, def time.Duration) time.Duration {
		if v > 0 {
			return v
		}
		return def
	}
	switch c {
	case ClassInteractive:
		return pick(t.Interactive, DefaultTimeoutInteractive)
	case ClassBulk:
		return pick(t.Bulk, DefaultTimeoutBulk)
	default:
		return pick(t.Standard, DefaultTimeoutStandard)
	}
}

// AttemptTimeout derives the per-attempt timeout for a request of class c
// with `remaining` deadline budget left (zero remaining means the request
// carries no deadline; negative means the deadline already passed). The
// timeout is the class base clamped to the remaining budget: an attempt
// must never outlive the deadline it serves — past that point the
// node-side deadline gate would cancel the work anyway, so waiting longer
// only ties up a router slot. The clamp floors at MinAttemptTimeout so a
// nearly expired (or just-expired) request still gets one honest attempt
// instead of an instant context cancellation — callers should stop
// retrying once remaining goes non-positive rather than rely on this.
func (t AttemptTimeouts) AttemptTimeout(c Class, remaining time.Duration) time.Duration {
	d := t.base(c)
	if remaining < 0 {
		// An expired deadline must not un-clamp back to the full class
		// base: that would let a dead request keep consuming full-length
		// attempts.
		return MinAttemptTimeout
	}
	if remaining > 0 && remaining < d {
		d = remaining
	}
	if d < MinAttemptTimeout {
		d = MinAttemptTimeout
	}
	return d
}

// MinAttemptTimeout is the floor under deadline-clamped attempt timeouts.
const MinAttemptTimeout = 10 * time.Millisecond

// Backoff is the capped exponential delay before retry number `retry`
// (0 = the first retry): base·2^retry, at most limit. A shift that
// overflows Duration — negative from retry 40 at a 10 ms base, zero from
// 63 — a non-positive base and a negative retry all give limit, so a
// retry loop can never stop sleeping.
func Backoff(base, limit time.Duration, retry int) time.Duration {
	if base <= 0 || retry < 0 || retry > 62 {
		return limit
	}
	d := base << retry
	if d>>retry != base || d > limit {
		return limit
	}
	return d
}
