package dispatch

import (
	"fmt"
	"time"
)

// Class is a request's priority class. Lower values are more
// latency-sensitive: batch formation serves interactive before
// standard before bulk, and the shedder drops bulk first under
// pressure.
type Class int

const (
	// ClassInteractive is latency-sensitive traffic: it never queues
	// behind standard or bulk work in batch formation. The zero value is
	// deliberately NOT interactive — an absent class must not claim
	// priority — so ClassStandard is 0.
	ClassStandard Class = iota
	ClassInteractive
	ClassBulk
)

// NumClasses is the number of priority classes (array sizing).
const NumClasses = 3

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case ClassStandard:
		return "standard"
	case ClassInteractive:
		return "interactive"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// rank orders classes for batch formation: interactive first, bulk
// last.
func (c Class) rank() int {
	switch c {
	case ClassInteractive:
		return 0
	case ClassStandard:
		return 1
	case ClassBulk:
		return 2
	}
	return 1
}

// ParseClass maps a wire string to a Class. The empty string is
// standard (the default for requests that carry no class). Unknown
// strings are a client error — the caller answers 400, it never
// defaults silently.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "standard":
		return ClassStandard, nil
	case "interactive":
		return ClassInteractive, nil
	case "bulk":
		return ClassBulk, nil
	}
	return ClassStandard, fmt.Errorf("dispatch: unknown priority class %q (interactive, standard, bulk)", s)
}

// Ticket is one queued unit of work as the scheduler sees it: its
// class, its absolute deadline (zero = none), when it entered the
// queue, and an opaque payload the caller gets back untouched.
type Ticket struct {
	Class    Class
	Deadline time.Time
	Enqueued time.Time
	Payload  any
}

// Expired reports whether the ticket's deadline has passed at now.
// Deadline-less tickets never expire.
func (t Ticket) Expired(now time.Time) bool {
	return !t.Deadline.IsZero() && !t.Deadline.After(now)
}

// MixSchedule spreads a weighted class mix over a repeating schedule of
// the given length: entry i is the index of the class that fills slot i.
// The fill is proportional by running quota (Bresenham-style) — each slot
// goes to the class furthest behind its weight share, ties to the
// earlier class — which interleaves classes instead of batching each
// one's slots together and gives every class its exact share whenever
// the shares are whole. Load generators cycle through it so two runs
// offer the same class sequence regardless of worker interleaving.
// Weights must be positive.
func MixSchedule(weights []int, slots int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	assigned := make([]int, len(weights))
	schedule := make([]int, slots)
	for i := range schedule {
		best, bestLag := 0, -1.0
		for j, w := range weights {
			lag := float64(w)*float64(i+1)/float64(total) - float64(assigned[j])
			if lag > bestLag {
				best, bestLag = j, lag
			}
		}
		assigned[best]++
		schedule[i] = best
	}
	return schedule
}
