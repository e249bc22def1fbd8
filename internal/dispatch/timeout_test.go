package dispatch

import (
	"testing"
	"time"
)

func TestAttemptTimeoutClampsToRemaining(t *testing.T) {
	var ts AttemptTimeouts
	cases := []struct {
		name      string
		class     Class
		remaining time.Duration
		want      time.Duration
	}{
		{"no deadline uses class base", ClassStandard, 0, DefaultTimeoutStandard},
		{"ample budget uses class base", ClassInteractive, time.Minute, DefaultTimeoutInteractive},
		{"tight budget clamps", ClassBulk, 500 * time.Millisecond, 500 * time.Millisecond},
		{"near-expired floors at minimum", ClassStandard, time.Millisecond, MinAttemptTimeout},
		// Negative remaining means the deadline already passed: it must
		// NOT read as "no deadline" and un-clamp to the full class base.
		{"expired gets the floor, not the base", ClassBulk, -time.Second, MinAttemptTimeout},
	}
	for _, c := range cases {
		if got := ts.AttemptTimeout(c.class, c.remaining); got != c.want {
			t.Errorf("%s: AttemptTimeout(%v, %v) = %v, want %v", c.name, c.class, c.remaining, got, c.want)
		}
	}
}

// The parent's rtmap-load expression, (10ms) << attempt, is negative at
// attempt 40 and zero from 63, so `-retry 100` against a refused port
// stopped sleeping; every such retry must read the cap instead.
func TestBackoff(t *testing.T) {
	const base, limit = 10 * time.Millisecond, 250 * time.Millisecond
	cases := []struct {
		base  time.Duration
		retry int
		want  time.Duration
	}{
		{base, 0, 10 * time.Millisecond},
		{base, 1, 20 * time.Millisecond},
		{base, 4, 160 * time.Millisecond},
		{base, 5, limit},
		{base, 39, limit},
		{base, 40, limit},
		{base, 41, limit},
		{base, 63, limit},
		{base, 64, limit},
		{base, 1000, limit},
		{base, -1, limit},
		{0, 0, limit},
		{-time.Second, 3, limit},
		{1 << 62, 1, limit},
	}
	for _, c := range cases {
		if got := Backoff(c.base, limit, c.retry); got != c.want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", c.base, limit, c.retry, got, c.want)
		}
	}
}
