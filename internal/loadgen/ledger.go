package loadgen

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rtmap/internal/dispatch"
)

// Class is one entry of a mix: a priority class, its share of the
// traffic and the deadline budget its requests carry (0 = none).
type Class struct {
	Name       string
	Weight     int
	DeadlineMS float64
}

// Mix assigns call i a class from a repeating schedule proportional to
// the class weights (dispatch.MixSchedule). A nil *Mix is "no mix":
// every call is classless.
type Mix struct {
	Classes  []Class // in the order given
	schedule []int
}

// NewMix spreads the classes over a schedule of the given length.
// Weights must be positive.
func NewMix(classes []Class, slots int) *Mix {
	weights := make([]int, len(classes))
	for i, c := range classes {
		weights[i] = c.Weight
	}
	return &Mix{Classes: classes, schedule: dispatch.MixSchedule(weights, slots)}
}

// ParseMix decodes "class:weight:deadline_ms,..." into a 100-slot mix;
// an empty spec is no mix (nil).
func ParseMix(spec string) (*Mix, error) {
	if spec == "" {
		return nil, nil
	}
	var classes []Class
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("entry %q: want class:weight:deadline_ms", part)
		}
		c := Class{Name: strings.TrimSpace(fields[0])}
		var err error
		if c.Weight, err = strconv.Atoi(strings.TrimSpace(fields[1])); err != nil || c.Weight <= 0 {
			return nil, fmt.Errorf("entry %q: weight must be a positive integer", part)
		}
		// !(x >= 0) also refuses NaN, which ParseFloat accepts.
		if c.DeadlineMS, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64); err != nil || !(c.DeadlineMS >= 0) {
			return nil, fmt.Errorf("entry %q: deadline_ms must be a non-negative number", part)
		}
		classes = append(classes, c)
	}
	return NewMix(classes, 100), nil
}

// At returns the class of call i, nil on a nil mix.
func (m *Mix) At(i int) *Class {
	if m == nil {
		return nil
	}
	return &m.Classes[m.schedule[i%len(m.schedule)]]
}

// Tally counts terminal outcomes. Sent == Accepted + Shed + Expired +
// Failed always; Goodput is the part of Accepted answered inside the
// class deadline.
type Tally struct {
	Sent     int64 `json:"sent"`
	Accepted int64 `json:"accepted"`
	Shed     int64 `json:"shed"`
	Expired  int64 `json:"expired"`
	Failed   int64 `json:"failed"`
	Goodput  int64 `json:"goodput"`
}

// Ledger is the client's account of a run: one Tally per class and in
// total, plus a count per Outcome.Category. Record may be called from
// any goroutine; read the fields once the pacer has returned.
type Ledger struct {
	mu         sync.Mutex
	Total      Tally
	Classes    map[string]*Tally
	Categories map[string]int64
}

// NewLedger opens a ledger with a tally for every class of the mix
// (none for a nil mix); those are the classes Record accepts.
func NewLedger(m *Mix) *Ledger {
	l := &Ledger{Classes: map[string]*Tally{}, Categories: map[string]int64{}}
	if m != nil {
		for _, c := range m.Classes {
			l.Classes[c.Name] = &Tally{}
		}
	}
	return l
}

// Record books one request's terminal outcome, wall being how long its
// caller waited: 200 is accepted, and goodput if wall is inside the
// class deadline (always, for no class or no deadline); 429 is shed; 503
// of kind "expired" is expired; anything else — other 503s included —
// is failed. c is nil or a class of the ledger's mix.
func (l *Ledger) Record(c *Class, o Outcome, wall time.Duration) {
	inDeadline := c == nil || c.DeadlineMS == 0 || wall.Seconds()*1e3 <= c.DeadlineMS
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Categories[o.Category()]++
	l.Total.book(o, inDeadline)
	if c != nil {
		l.Classes[c.Name].book(o, inDeadline)
	}
}

func (t *Tally) book(o Outcome, inDeadline bool) {
	t.Sent++
	switch {
	case o.Status == http.StatusOK:
		t.Accepted++
		if inDeadline {
			t.Goodput++
		}
	case o.Status == http.StatusTooManyRequests:
		t.Shed++
	case o.Status == http.StatusServiceUnavailable && o.Kind == "expired":
		t.Expired++
	default:
		t.Failed++
	}
}
