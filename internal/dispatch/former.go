package dispatch

import "time"

// FormerOptions sizes a Former. Zero values select the documented
// defaults.
type FormerOptions struct {
	// MaxBatch caps batch size (default 8; 1 disables coalescing).
	MaxBatch int
	// Window is the cap on hold time while every device is busy: a
	// non-full batch that finds no idle device leaves formation at most
	// this long after its oldest ticket arrived (default 2ms). With an
	// idle device nothing is held at all — see SetIdle.
	Window time.Duration
	// StarveLimit bounds bulk starvation: a bulk ticket that has waited
	// at least this long is promoted into the next batch ahead of the
	// priority order, so sustained interactive pressure can slow bulk
	// down but never park it forever. Default 8×Window.
	StarveLimit time.Duration
}

func (o FormerOptions) withDefaults() FormerOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.Window <= 0 {
		o.Window = 2 * time.Millisecond
	}
	if o.StarveLimit <= 0 {
		o.StarveLimit = 8 * o.Window
	}
	return o
}

// Former is deadline- and class-aware micro-batch formation policy. The
// caller pushes tickets as they arrive and asks Form whether a batch
// should dispatch now; Former owns only the pending set and the
// decision, never a clock or a goroutine, so scripted tests drive it
// deterministically.
//
// Formation is work-conserving: pending work never waits beside an idle
// device, and batches grow only from what queues up while every device
// is busy. Decision rules, in order:
//
//   - tickets whose deadline has already passed are cancelled (returned
//     as expired) before they can occupy batch capacity;
//   - a full batch (MaxBatch pending) dispatches immediately;
//   - pending work and an idle device (SetIdle) dispatch immediately;
//   - otherwise every device is busy and the batch is held for what
//     arrives meanwhile, until the latest instant that still leaves the
//     tightest pending deadline its estimated execution time (early
//     close: a tight deadline is never sacrificed to batching
//     opportunity) or until the window cap, whichever is sooner;
//   - composition takes interactive first, then standard, then bulk,
//     FIFO within a class, so interactive never queues behind bulk; a
//     bulk ticket that has starved past StarveLimit is promoted to the
//     front of the next batch.
//
// Not safe for concurrent use: one Former belongs to one batcher
// goroutine.
type Former struct {
	opts FormerOptions
	// perItem is the caller-refreshed per-item execution estimate the
	// early-close rule prices dispatch-to-completion with.
	perItem time.Duration
	// idle is the caller-refreshed answer to "does the target placement
	// have a device with nothing queued".
	idle bool
	last CloseReason          // why the latest batch closed
	q    [NumClasses][]Ticket // pending, indexed by Class.rank()
	n    int
}

// CloseReason says which decision rule closed a batch.
type CloseReason int

const (
	CloseFull     CloseReason = iota // MaxBatch tickets were pending
	CloseIdle                        // a device was idle
	CloseDeadline                    // early close for a pending deadline
	CloseWindow                      // held for the whole window cap behind busy devices
	CloseDrain                       // forced (shutdown drain)
)

// NumCloseReasons is the number of close reasons (array sizing).
const NumCloseReasons = 5

// String returns the reason's metric-label and span-detail spelling.
func (r CloseReason) String() string {
	return [NumCloseReasons]string{"full", "idle", "deadline", "window", "drain"}[r]
}

// NewFormer returns an empty Former.
func NewFormer(opts FormerOptions) *Former {
	return &Former{opts: opts.withDefaults()}
}

// Push adds one ticket to the pending set.
func (f *Former) Push(t Ticket) {
	f.q[t.Class.rank()] = append(f.q[t.Class.rank()], t)
	f.n++
}

// Pending returns the number of tickets waiting to be formed.
func (f *Former) Pending() int { return f.n }

// SetPerItemEstimate refreshes the per-item execution time estimate
// used by the early-close rule (0 disables early close until the
// caller has a measurement).
func (f *Former) SetPerItemEstimate(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.perItem = d
}

// SetIdle refreshes whether the target placement has an idle device.
// While it does, Form dispatches whatever is pending at once; a fresh
// Former assumes busy.
func (f *Former) SetIdle(idle bool) { f.idle = idle }

// LastClose reports why the batch most recently returned by Form
// closed.
func (f *Former) LastClose() CloseReason { return f.last }

// Form decides whether a batch should dispatch at now. It returns the
// formed batch (nil when formation should keep waiting), the tickets
// cancelled because their deadline already passed, and — when batch is
// nil and tickets remain — the wake time at which the decision changes
// without further arrivals or a device going idle. force dispatches
// whatever is pending regardless of the window (drain paths). Callers
// loop until batch comes back nil: one call forms at most MaxBatch.
func (f *Former) Form(now time.Time, force bool) (batch, expired []Ticket, wake time.Time) {
	expired = f.dropExpired(now)
	if f.n == 0 {
		return nil, expired, time.Time{}
	}
	switch {
	case force:
		f.last = CloseDrain
	case f.n >= f.opts.MaxBatch:
		f.last = CloseFull
	case f.idle:
		f.last = CloseIdle
	default:
		close, why := f.closeTime()
		if close.After(now) {
			return nil, expired, close
		}
		f.last = why
	}
	return f.compose(now), expired, time.Time{}
}

// dropExpired removes every pending ticket whose deadline has passed.
func (f *Former) dropExpired(now time.Time) []Ticket {
	var out []Ticket
	for c := range f.q {
		kept := f.q[c][:0]
		for _, t := range f.q[c] {
			if t.Expired(now) {
				out = append(out, t)
				f.n--
			} else {
				kept = append(kept, t)
			}
		}
		f.q[c] = kept
	}
	return out
}

// closeTime is the instant a batch held behind busy devices stops
// waiting, and which rule set it: the window cap measured from the
// oldest pending ticket, pulled earlier by any pending deadline so that
// dispatch still leaves it the estimated execution time of the
// would-be batch.
func (f *Former) closeTime() (close time.Time, why CloseReason) {
	why = CloseWindow
	est := time.Duration(min(f.n, f.opts.MaxBatch)) * f.perItem
	if est <= 0 {
		// Cold start: no execution estimate yet. Still close strictly
		// before the deadline — dispatching AT the deadline guarantees a
		// miss, and real timers always overshoot their wake a little.
		est = f.opts.Window / 8
	}
	for c := range f.q {
		for _, t := range f.q[c] {
			windowEnd := t.Enqueued.Add(f.opts.Window)
			if close.IsZero() || windowEnd.Before(close) {
				close, why = windowEnd, CloseWindow
			}
			if !t.Deadline.IsZero() {
				if latest := t.Deadline.Add(-est); latest.Before(close) {
					close, why = latest, CloseDeadline
				}
			}
		}
	}
	return close, why
}

// compose pops up to MaxBatch tickets in priority order: a starved
// bulk ticket first (anti-starvation), then interactive, standard,
// bulk, FIFO within each class.
func (f *Former) compose(now time.Time) []Ticket {
	batch := make([]Ticket, 0, min(f.n, f.opts.MaxBatch))
	bulk := ClassBulk.rank()
	if len(f.q[bulk]) > 0 && now.Sub(f.q[bulk][0].Enqueued) >= f.opts.StarveLimit {
		batch = append(batch, f.q[bulk][0])
		f.q[bulk] = f.q[bulk][1:]
		f.n--
	}
	for c := range f.q {
		for len(batch) < f.opts.MaxBatch && len(f.q[c]) > 0 {
			batch = append(batch, f.q[c][0])
			f.q[c] = f.q[c][1:]
			f.n--
		}
	}
	return batch
}
