package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The open loop makes the calls it was asked for, each due exactly on
// the schedule. A ticker-paced loop fails this: it drops the ticks it
// wakes up late for (≈ 60 % of the asked rate at 2 000/s on a 1 ms
// timer) and has no due time to hand over.
func TestOpenOffersTheRateOnSchedule(t *testing.T) {
	const rate, window = 2000.0, 500 * time.Millisecond
	var mu sync.Mutex
	var dues []time.Time // index = call number; Open starts calls in order
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	Open(ctx, rate, 64, func(i int, due time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for len(dues) <= i {
			dues = append(dues, time.Time{})
		}
		dues[i] = due
	})
	want := rate * window.Seconds()
	if n := float64(len(dues)); n < 0.98*want || n > 1.02*want {
		t.Fatalf("open loop at %.0f/s for %v made %d calls, want %.0f ± 2 %%", rate, window, len(dues), want)
	}
	for i, due := range dues {
		if due.IsZero() {
			t.Fatalf("call %d was never made: calls must be numbered without gaps", i)
		}
		if got, want := due.Sub(dues[0]), time.Duration(float64(i)/rate*float64(time.Second)); got != want {
			t.Fatalf("call %d due %v after call 0, want exactly i/rate = %v", i, got, want)
		}
		if i > 0 && !due.After(dues[i-1]) {
			t.Fatalf("due times not strictly increasing at call %d", i)
		}
	}
}

// One stalled call with a single in-flight slot: the calls behind it are
// made late, not dropped, and the stall shows in time.Since(due) of
// every call it delayed — the coordinated omission a latency measured
// from the send would hide.
func TestOpenCatchesUpAndChargesTheStall(t *testing.T) {
	const rate, window, stall = 1000.0, 500 * time.Millisecond, 100 * time.Millisecond
	var calls, late atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	Open(ctx, rate, 1, func(i int, due time.Time) {
		calls.Add(1)
		if i > 5 && time.Since(due) > stall/2 {
			late.Add(1)
		}
		if i == 5 {
			time.Sleep(stall)
		}
	})
	if late.Load() < 10 {
		t.Errorf("%d calls behind the stall saw more than %v of lateness, want at least 10", late.Load(), stall/2)
	}
	if want := int64(0.98 * rate * window.Seconds()); calls.Load() < want {
		t.Errorf("made %d calls, want every call that was due (≥ %d): the loop must catch up after a stall", calls.Load(), want)
	}
}

func TestOpenReturnsAfterEveryCall(t *testing.T) {
	var started, finished atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	Open(ctx, 500, 64, func(int, time.Time) {
		started.Add(1)
		time.Sleep(20 * time.Millisecond)
		finished.Add(1)
	})
	if s, f := started.Load(), finished.Load(); s == 0 || s != f {
		t.Fatalf("Open returned with %d of %d calls finished", f, s)
	}
}

// Calls are numbered 0..n-1 across the workers without gaps or repeats,
// no worker starts a call once it has seen ctx ended, and Closed returns
// only after every call has.
func TestClosedNumbersCallsAndStopsWithCtx(t *testing.T) {
	const workers, stopAt = 4, 200
	var mu sync.Mutex
	seen := map[int]int{}
	var started, finished atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Closed(ctx, workers, func(i int) {
		started.Add(1)
		mu.Lock()
		seen[i]++
		mu.Unlock()
		if i == stopAt {
			cancel()
		}
		// A call numbered past stopAt waits out the cancel, so the worker
		// that made it is certain to see ctx ended before its next one.
		if i > stopAt {
			<-ctx.Done()
		}
		finished.Add(1)
	})
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("Closed returned with %d of %d calls finished", f, s)
	}
	n := len(seen)
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("call number %d made %d times over %d calls: want 0..n-1 once each", i, seen[i], n)
		}
	}
	// Each other worker may have passed its ctx check before the cancel,
	// once.
	if n <= stopAt || n > stopAt+workers {
		t.Fatalf("%d calls made with ctx cancelled inside call %d by %d workers, want %d..%d", n, stopAt, workers, stopAt+1, stopAt+workers)
	}
}
