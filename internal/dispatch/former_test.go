package dispatch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// t0 anchors every scripted schedule; the Manual clock starts here.
var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func ticket(c Class, enq time.Time, deadline time.Duration) Ticket {
	t := Ticket{Class: c, Enqueued: enq}
	if deadline > 0 {
		t.Deadline = enq.Add(deadline)
	}
	return t
}

// payloads labels tickets so composition order is assertable.
func labeled(c Class, enq time.Time, deadline time.Duration, label string) Ticket {
	t := ticket(c, enq, deadline)
	t.Payload = label
	return t
}

func labels(batch []Ticket) []string {
	out := make([]string, len(batch))
	for i, t := range batch {
		out[i] = t.Payload.(string)
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Formation order: interactive before standard before bulk, FIFO
// within a class, regardless of arrival order — an interactive arrival
// never queues behind earlier bulk work.
func TestFormationPriorityOrder(t *testing.T) {
	clk := NewManual(t0)
	f := NewFormer(FormerOptions{MaxBatch: 8, Window: time.Millisecond})
	f.Push(labeled(ClassBulk, clk.Now(), 0, "b1"))
	f.Push(labeled(ClassStandard, clk.Now(), 0, "s1"))
	f.Push(labeled(ClassBulk, clk.Now(), 0, "b2"))
	f.Push(labeled(ClassInteractive, clk.Now(), 0, "i1"))
	f.Push(labeled(ClassStandard, clk.Now(), 0, "s2"))

	clk.Advance(2 * time.Millisecond) // window expired
	batch, expired, _ := f.Form(clk.Now(), false)
	if len(expired) != 0 {
		t.Fatalf("%d tickets expired, want 0", len(expired))
	}
	want := []string{"i1", "s1", "s2", "b1", "b2"}
	if !eq(labels(batch), want) {
		t.Fatalf("batch order %v, want %v", labels(batch), want)
	}
	if f.Pending() != 0 {
		t.Fatalf("%d pending after full drain", f.Pending())
	}
}

// A full batch dispatches immediately, without waiting for the window,
// and composition still honors priority.
func TestFormationFullBatchDispatchesEagerly(t *testing.T) {
	clk := NewManual(t0)
	f := NewFormer(FormerOptions{MaxBatch: 2, Window: time.Hour})
	f.Push(labeled(ClassBulk, clk.Now(), 0, "b1"))
	f.Push(labeled(ClassInteractive, clk.Now(), 0, "i1"))
	f.Push(labeled(ClassStandard, clk.Now(), 0, "s1"))

	batch, _, _ := f.Form(clk.Now(), false) // same instant: no time passed
	if !eq(labels(batch), []string{"i1", "s1"}) {
		t.Fatalf("first batch %v, want [i1 s1]", labels(batch))
	}
	// One pending item < MaxBatch: formation waits for the window again.
	batch, _, wake := f.Form(clk.Now(), false)
	if batch != nil {
		t.Fatalf("undersized batch dispatched immediately: %v", labels(batch))
	}
	if wake.IsZero() || !wake.After(clk.Now()) {
		t.Fatalf("no future wake time for the pending remainder (wake %v)", wake)
	}
}

// Early close: a tight deadline pulls dispatch to deadline−exec rather
// than the window end.
func TestFormationEarlyCloseOnTightDeadline(t *testing.T) {
	clk := NewManual(t0)
	f := NewFormer(FormerOptions{MaxBatch: 8, Window: 10 * time.Millisecond})
	f.SetPerItemEstimate(time.Millisecond)

	f.Push(labeled(ClassStandard, clk.Now(), 0, "s1"))
	batch, _, wake := f.Form(clk.Now(), false)
	if batch != nil {
		t.Fatal("deadline-less singleton dispatched before its window")
	}
	if got := wake.Sub(clk.Now()); got != 10*time.Millisecond {
		t.Fatalf("deadline-less wake after %v, want the full 10ms window", got)
	}

	// A 4ms-deadline interactive arrival must close the window at
	// deadline − 2 items × 1ms/item = t+2ms, not t+10ms.
	f.Push(labeled(ClassInteractive, clk.Now(), 4*time.Millisecond, "i1"))
	batch, _, wake = f.Form(clk.Now(), false)
	if batch != nil {
		t.Fatal("dispatched before the early-close instant")
	}
	if got := wake.Sub(clk.Now()); got != 2*time.Millisecond {
		t.Fatalf("early close after %v, want 2ms (deadline 4ms − 2×1ms exec)", got)
	}

	clk.Advance(2 * time.Millisecond)
	batch, expired, _ := f.Form(clk.Now(), false)
	if len(expired) != 0 {
		t.Fatalf("expired %d tickets at the early-close instant", len(expired))
	}
	if !eq(labels(batch), []string{"i1", "s1"}) {
		t.Fatalf("early-closed batch %v, want [i1 s1]", labels(batch))
	}
}

// Tickets whose deadline passed while queued are cancelled, never
// dispatched.
func TestFormationCancelsExpired(t *testing.T) {
	clk := NewManual(t0)
	f := NewFormer(FormerOptions{MaxBatch: 8, Window: time.Millisecond})
	f.Push(labeled(ClassInteractive, clk.Now(), 500*time.Microsecond, "dead"))
	f.Push(labeled(ClassStandard, clk.Now(), 0, "alive"))

	clk.Advance(2 * time.Millisecond)
	batch, expired, _ := f.Form(clk.Now(), false)
	if len(expired) != 1 || expired[0].Payload.(string) != "dead" {
		t.Fatalf("expired %v, want exactly [dead]", labels(expired))
	}
	if !eq(labels(batch), []string{"alive"}) {
		t.Fatalf("batch %v, want [alive]", labels(batch))
	}
}

// Non-starvation: under sustained interactive pressure that always
// fills MaxBatch, a bulk ticket older than StarveLimit is promoted so
// bulk still drains.
func TestFormationBulkNeverStarves(t *testing.T) {
	clk := NewManual(t0)
	f := NewFormer(FormerOptions{MaxBatch: 2, Window: time.Millisecond, StarveLimit: 4 * time.Millisecond})
	f.Push(labeled(ClassBulk, clk.Now(), 0, "bulk"))

	// Keep two interactive tickets pending at every formation: without
	// the anti-starvation rule, bulk would never be chosen.
	served := 0
	for round := 0; round < 10; round++ {
		f.Push(labeled(ClassInteractive, clk.Now(), 0, "i"))
		f.Push(labeled(ClassInteractive, clk.Now(), 0, "i"))
		batch, _, _ := f.Form(clk.Now(), false)
		if batch == nil {
			t.Fatalf("round %d: full queue did not dispatch", round)
		}
		for _, tk := range batch {
			if tk.Payload.(string) == "bulk" {
				served++
				age := clk.Now().Sub(tk.Enqueued)
				if age < 4*time.Millisecond {
					t.Fatalf("bulk promoted after only %v, before the 4ms starve limit", age)
				}
				if batch[0].Payload.(string) != "bulk" {
					t.Fatalf("starved bulk not at the front of its batch: %v", labels(batch))
				}
			}
		}
		clk.Advance(time.Millisecond)
	}
	if served != 1 {
		t.Fatalf("bulk ticket served %d times under interactive pressure, want exactly 1", served)
	}
}

// force drains everything pending regardless of windows (shutdown
// path), in priority order, MaxBatch at a time.
func TestFormationForceDrains(t *testing.T) {
	clk := NewManual(t0)
	f := NewFormer(FormerOptions{MaxBatch: 2, Window: time.Hour})
	f.Push(labeled(ClassBulk, clk.Now(), 0, "b1"))
	f.Push(labeled(ClassStandard, clk.Now(), 0, "s1"))
	f.Push(labeled(ClassStandard, clk.Now(), 0, "s2"))

	var got []string
	for f.Pending() > 0 {
		batch, _, _ := f.Form(clk.Now(), true)
		if len(batch) == 0 {
			t.Fatal("force formation returned an empty batch with tickets pending")
		}
		if len(batch) > 2 {
			t.Fatalf("force batch of %d exceeds MaxBatch 2", len(batch))
		}
		got = append(got, labels(batch)...)
	}
	if !eq(got, []string{"s1", "s2", "b1"}) {
		t.Fatalf("forced drain order %v, want [s1 s2 b1]", got)
	}
}

// formStep is one instant of a scripted schedule: advance the clock,
// push arrivals, refresh the idle input, then form until the Former
// wants to wait.
type formStep struct {
	advance time.Duration
	idle    bool
	push    []arrival

	batches [][]string    // formed, in order
	reasons []CloseReason // one per batch
	expired []string
	wake    time.Duration // offset from t0 of the returned wake; 0 = none
}

type arrival struct {
	class    Class
	deadline time.Duration // relative to the arrival; 0 = none
	label    string
}

// The work-conserving rule sits between "full" and the hold-while-busy
// rules: pending work and an idle device dispatch at once, and the
// window survives only as the cap on a hold behind busy devices.
func TestFormationIdleRule(t *testing.T) {
	const ms = time.Millisecond
	std := func(labels ...string) []arrival {
		out := make([]arrival, len(labels))
		for i, l := range labels {
			out[i] = arrival{ClassStandard, 0, l}
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		opts    FormerOptions
		perItem time.Duration
		steps   []formStep
	}{
		{
			name: "idle dispatches a singleton at the same instant",
			opts: FormerOptions{MaxBatch: 8, Window: 10 * ms},
			steps: []formStep{
				{idle: true, push: std("a"), batches: [][]string{{"a"}}, reasons: []CloseReason{CloseIdle}},
			},
		},
		{
			name: "busy holds until the window cap",
			opts: FormerOptions{MaxBatch: 8, Window: 10 * ms},
			steps: []formStep{
				{push: std("a"), wake: 10 * ms},
				{advance: 3 * ms, push: std("b"), wake: 10 * ms}, // cap counts from the oldest ticket
				{advance: 7 * ms, batches: [][]string{{"a", "b"}}, reasons: []CloseReason{CloseWindow}},
			},
		},
		{
			name:    "busy holds until the deadline early-close when that is sooner",
			opts:    FormerOptions{MaxBatch: 8, Window: 10 * ms},
			perItem: ms,
			steps: []formStep{
				{push: []arrival{{ClassStandard, 0, "a"}, {ClassInteractive, 5 * ms, "i"}}, wake: 3 * ms},
				{advance: 3 * ms, batches: [][]string{{"i", "a"}}, reasons: []CloseReason{CloseDeadline}},
			},
		},
		{
			name: "busy to idle releases what queued, in class order",
			opts: FormerOptions{MaxBatch: 8, Window: time.Hour},
			steps: []formStep{
				{push: []arrival{{ClassBulk, 0, "b"}, {ClassStandard, 0, "s"}}, wake: time.Hour},
				{advance: ms, push: []arrival{{ClassInteractive, 0, "i"}}, wake: time.Hour},
				{advance: ms, idle: true, batches: [][]string{{"i", "s", "b"}}, reasons: []CloseReason{CloseIdle}},
			},
		},
		{
			name: "idle with more than MaxBatch pending sends a full batch then the rest, no wait between",
			opts: FormerOptions{MaxBatch: 4, Window: time.Hour},
			steps: []formStep{
				{idle: true, push: std("1", "2", "3", "4", "5", "6"),
					batches: [][]string{{"1", "2", "3", "4"}, {"5", "6"}}, reasons: []CloseReason{CloseFull, CloseIdle}},
			},
		},
		{
			name: "expired tickets are dropped first, never dispatched by the idle rule",
			opts: FormerOptions{MaxBatch: 8, Window: 10 * ms},
			steps: []formStep{
				{push: []arrival{{ClassInteractive, 2 * ms, "dead"}, {ClassStandard, 0, "alive"}}, wake: 2*ms - 10*ms/8},
				{advance: 3 * ms, idle: true, expired: []string{"dead"},
					batches: [][]string{{"alive"}}, reasons: []CloseReason{CloseIdle}},
				{advance: ms, push: []arrival{{ClassStandard, 2 * ms, "doomed"}}, wake: 6*ms - 10*ms/8},
				{advance: 2 * ms, idle: true, expired: []string{"doomed"}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := NewManual(t0)
			f := NewFormer(tc.opts)
			f.SetPerItemEstimate(tc.perItem)
			for i, st := range tc.steps {
				now := clk.Advance(st.advance)
				for _, a := range st.push {
					f.Push(labeled(a.class, now, a.deadline, a.label))
				}
				f.SetIdle(st.idle)
				var batches [][]string
				var reasons []CloseReason
				var expired []string
				var wake time.Time
				for {
					batch, exp, w := f.Form(now, false)
					expired = append(expired, labels(exp)...)
					if batch == nil {
						wake = w
						break
					}
					batches = append(batches, labels(batch))
					reasons = append(reasons, f.LastClose())
				}
				if len(batches) != len(st.batches) {
					t.Fatalf("step %d: batches %v, want %v", i, batches, st.batches)
				}
				for j := range batches {
					if !eq(batches[j], st.batches[j]) || reasons[j] != st.reasons[j] {
						t.Fatalf("step %d batch %d: %v closed by %v, want %v closed by %v",
							i, j, batches[j], reasons[j], st.batches[j], st.reasons[j])
					}
				}
				if !eq(expired, st.expired) {
					t.Fatalf("step %d: expired %v, want %v", i, expired, st.expired)
				}
				if st.wake == 0 && !wake.IsZero() || st.wake != 0 && !wake.Equal(t0.Add(st.wake)) {
					t.Fatalf("step %d: wake %v (t0+%v), want t0+%v", i, wake, wake.Sub(t0), st.wake)
				}
			}
		})
	}
}

// TestFormerSchedules drives the Former through seeded random scripts
// of arrivals × classes × deadlines × idle/busy flips × clock steps and
// holds it to the policy's contract on every one: each pushed ticket
// comes out exactly once, batched or expired (conservation); no batch
// exceeds MaxBatch; composition order holds; nothing is held beside an
// idle device; and behind busy devices nothing is held past
// min(Enqueued + Window, Deadline − est) — the bound the pre-idle policy
// met, so no ticket leaves later than it did.
func TestFormerSchedules(t *testing.T) {
	const scripts = 2500
	for seed := int64(1); seed <= scripts; seed++ {
		if msg := runFormerScript(seed); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// runFormerScript plays one random script and returns the first
// contract violation ("" when there is none).
func runFormerScript(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	opts := FormerOptions{
		MaxBatch: 1 + rng.Intn(8),
		Window:   time.Duration(1+rng.Intn(10)) * time.Millisecond,
	}
	starve := 8 * opts.Window
	var perItem time.Duration
	if rng.Intn(3) > 0 {
		perItem = time.Duration(rng.Intn(1000)) * time.Microsecond
	}
	clk := NewManual(t0)
	f := NewFormer(opts)
	f.SetPerItemEstimate(perItem)

	pending := map[int]Ticket{} // by push sequence number
	pushed, out := 0, 0
	lastOut := [NumClasses]int{-1, -1, -1} // per class, FIFO across batches
	idle := false

	// form runs the caller's loop at one instant and checks everything
	// that leaves, then what is allowed to stay.
	form := func(force bool) string {
		now := clk.Now()
		for {
			before := len(pending)
			batch, expired, wake := f.Form(now, force)
			for _, tk := range expired {
				seq := tk.Payload.(int)
				if _, ok := pending[seq]; !ok {
					return fmt.Sprintf("ticket %d expired twice or never pushed", seq)
				}
				if !tk.Expired(now) {
					return fmt.Sprintf("ticket %d cancelled before its deadline", seq)
				}
				delete(pending, seq)
				out++
			}
			if len(batch) > opts.MaxBatch {
				return fmt.Sprintf("batch of %d exceeds MaxBatch %d", len(batch), opts.MaxBatch)
			}
			// Composition: an optional starved bulk ticket, then classes in
			// rank order; FIFO within a class, across batches too.
			ordered := batch
			if len(batch) > 0 && batch[0].Class == ClassBulk && now.Sub(batch[0].Enqueued) >= starve {
				ordered = batch[1:]
			}
			for i := 1; i < len(ordered); i++ {
				if ordered[i].Class.rank() < ordered[i-1].Class.rank() {
					return fmt.Sprintf("batch composes %v after %v", ordered[i].Class, ordered[i-1].Class)
				}
			}
			for _, tk := range batch {
				seq := tk.Payload.(int)
				if _, ok := pending[seq]; !ok {
					return fmt.Sprintf("ticket %d dispatched twice or never pushed", seq)
				}
				if tk.Expired(now) {
					return fmt.Sprintf("ticket %d dispatched after its deadline", seq)
				}
				if seq < lastOut[tk.Class] {
					return fmt.Sprintf("ticket %d left after ticket %d of its class (FIFO)", seq, lastOut[tk.Class])
				}
				lastOut[tk.Class] = seq
				delete(pending, seq)
				out++
			}
			if batch != nil {
				if len(batch) == 0 {
					return "empty non-nil batch"
				}
				if want := min(before-len(expired), opts.MaxBatch); len(batch) != want {
					return fmt.Sprintf("batch of %d with %d dispatchable, want %d", len(batch), before-len(expired), want)
				}
				continue
			}
			if f.Pending() != len(pending) {
				return fmt.Sprintf("Pending() = %d with %d tickets outstanding", f.Pending(), len(pending))
			}
			if len(pending) == 0 {
				if !wake.IsZero() {
					return "wake time with nothing pending"
				}
				return ""
			}
			if force || idle || len(pending) >= opts.MaxBatch {
				return fmt.Sprintf("%d tickets held (force %v, idle %v, MaxBatch %d)", len(pending), force, idle, opts.MaxBatch)
			}
			// Held behind busy devices: the hold must end by the bound.
			est := time.Duration(len(pending)) * perItem
			if est <= 0 {
				est = opts.Window / 8
			}
			var bound time.Time
			for _, tk := range pending {
				if b := tk.Enqueued.Add(opts.Window); bound.IsZero() || b.Before(bound) {
					bound = b
				}
				if !tk.Deadline.IsZero() {
					if b := tk.Deadline.Add(-est); b.Before(bound) {
						bound = b
					}
				}
			}
			if !bound.After(now) {
				return fmt.Sprintf("tickets held at %v past the bound %v", now.Sub(t0), bound.Sub(t0))
			}
			if !wake.Equal(bound) {
				return fmt.Sprintf("wake %v, want the bound %v", wake.Sub(t0), bound.Sub(t0))
			}
			return ""
		}
	}

	for step, steps := 0, 10+rng.Intn(40); step < steps; step++ {
		switch rng.Intn(4) {
		case 0: // same instant
		case 1:
			clk.Advance(time.Duration(rng.Intn(200)) * time.Microsecond)
		default:
			clk.Advance(time.Duration(rng.Int63n(int64(2 * opts.Window))))
		}
		for n := rng.Intn(4); n > 0; n-- {
			tk := Ticket{Class: Class(rng.Intn(NumClasses)), Enqueued: clk.Now(), Payload: pushed}
			if rng.Intn(2) == 0 {
				tk.Deadline = tk.Enqueued.Add(time.Duration(rng.Int63n(int64(3 * opts.Window))))
			}
			pending[pushed] = tk
			pushed++
			f.Push(tk)
		}
		if rng.Intn(3) == 0 {
			idle = !idle
		}
		f.SetIdle(idle)
		if msg := form(false); msg != "" {
			return fmt.Sprintf("step %d: %s", step, msg)
		}
	}
	if msg := form(true); msg != "" {
		return "drain: " + msg
	}
	if out != pushed {
		return fmt.Sprintf("%d tickets pushed, %d came out", pushed, out)
	}
	return ""
}

// ParseClass round-trips the wire names, defaults the empty string to
// standard, and rejects junk.
func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", ClassStandard, true},
		{"standard", ClassStandard, true},
		{"interactive", ClassInteractive, true},
		{"bulk", ClassBulk, true},
		{"Interactive", ClassStandard, false},
		{"junk", ClassStandard, false},
	} {
		got, err := ParseClass(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, c := range []Class{ClassInteractive, ClassStandard, ClassBulk} {
		if back, err := ParseClass(c.String()); err != nil || back != c {
			t.Errorf("round-trip %v -> %q -> %v, %v", c, c.String(), back, err)
		}
	}
}
