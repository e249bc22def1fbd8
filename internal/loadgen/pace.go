package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Closed is the closed loop: workers goroutines each make their next
// call as soon as the previous one returns, so a slow server is offered
// less load. Calls are numbered 0..n-1 from one counter shared by the
// workers. ctx ends the starting of calls; Closed returns once every
// started call has.
func Closed(ctx context.Context, workers int, fire func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				fire(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
}

// Open is the open loop: call i is due at start + i/rate whatever the
// earlier calls are doing. The pacer sleeps only when it is early and
// makes every call it owes before it sleeps again, so a late wake-up (a
// timer is ~1 ms coarse) delays arrivals instead of dropping them. fire
// receives the due time: latency measured from it charges a stall — the
// pacer's or the server's — to every request the stall delayed. At most
// inFlight calls are outstanding; past that the pacer blocks and the
// backlog shows as lateness. ctx ends the starting of calls; Open returns
// once every started call has.
func Open(ctx context.Context, rate float64, inFlight int, fire func(i int, due time.Time)) {
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if early := time.Until(due); early > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(early):
			}
		}
		if ctx.Err() != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fire(i, due)
		}()
	}
}
