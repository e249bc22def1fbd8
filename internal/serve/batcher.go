package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/tensor"
)

// errClosed reports a submit against a batcher whose model was evicted or
// whose server is draining; callers re-resolve the model and retry.
var errClosed = errors.New("serve: model evicted or server draining")

// item is one queued inference: a single input sample plus the channel
// its result is delivered on (buffered, so the executor never blocks on a
// departed caller).
type item struct {
	in  *tensor.Float
	enq time.Time
	res chan itemResult

	// class and deadline are the request's SLO metadata: formation
	// orders batches by class, the early-close rule prices deadlines,
	// and an item whose deadline passes anywhere before execution is
	// cancelled with errExpired instead of run. Zero values mean
	// standard class with no deadline — exactly the pre-SLO behavior.
	class    dispatch.Class
	deadline time.Time

	// dispatch is stamped by the batcher when the item's micro-batch is
	// handed to the fleet; enq→dispatch is the "wait" phase. Work
	// submitted to the fleet directly (tests, benchmarks) leaves it zero
	// and the fleet falls back to enq.
	dispatch time.Time
	// trace, when non-empty, is the request's trace ID: the fleet emits
	// spans for this item's phases. layers additionally samples per-layer
	// execution spans.
	trace  string
	layers bool
}

type itemResult struct {
	logits []int32
	argmax int
	info   BatchInfo
	err    error
}

// batcher turns one model's queued items into micro-batches. The
// formation policy — work-conserving dispatch, priority classes,
// deadline early-close, bulk anti-starvation — lives in dispatch.Former;
// this goroutine owns only the clock, the channel, the fleet's idle
// signal and the handoff to the fleet. A request's items enter formation
// together. While the placement has an idle device they leave at once;
// while every device is busy they are held and joined by what arrives
// meanwhile, and leave when the batch reaches MaxBatch items, a device
// frees, a pending deadline forces an early close, or the window cap
// expires — whichever comes first. Items whose deadline passes while
// they wait are cancelled with errExpired, never dispatched.
type batcher struct {
	e     *entry
	fleet *Fleet
	opts  BatchOptions

	// depth counts items admitted but not yet dispatched or cancelled —
	// the backlog admission control prices with the entry's delay
	// estimator. arrivals counts admissions monotonically; the
	// autoscaler differentiates it into an arrival rate.
	depth    atomic.Int64
	arrivals atomic.Int64

	mu     sync.RWMutex // guards closed vs in-flight sends
	closed bool
	ch     chan []*item  // one request's items per send
	wake   chan struct{} // the fleet's device-freed signal, see Fleet.idleOrWake
	done   chan struct{}
}

func newBatcher(e *entry, fleet *Fleet, opts BatchOptions) *batcher {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 8
	}
	if opts.Window <= 0 {
		opts.Window = 2 * time.Millisecond
	}
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	b := &batcher{
		e:     e,
		fleet: fleet,
		opts:  opts,
		ch:    make(chan []*item, opts.Queue),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues the items of one request as a group, all or none,
// blocking when the queue is full (backpressure). The read lock is held
// across the send so close() cannot close the channel under an
// in-flight sender.
func (b *batcher) submit(items []*item) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return errClosed
	}
	b.depth.Add(int64(len(items)))
	b.arrivals.Add(int64(len(items)))
	b.ch <- items
	return nil
}

// close stops intake and waits for the dispatcher to hand every queued
// item to the fleet. Safe to call more than once.
func (b *batcher) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.ch)
	}
	b.mu.Unlock()
	<-b.done
}

func (b *batcher) run() {
	defer close(b.done)
	f := dispatch.NewFormer(dispatch.FormerOptions{MaxBatch: b.opts.MaxBatch, Window: b.opts.Window})
	// One timer for the batcher's life, armed only while a batch is held
	// behind busy devices.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	armed := false
	for {
		select {
		case group, ok := <-b.ch:
			if !ok {
				b.drain(f)
				return
			}
			for _, it := range group {
				f.Push(ticketOf(it))
			}
		case <-b.wake:
		case <-timer.C:
			armed = false
		}
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
		// Form until the Former wants to wait, then sleep until an
		// arrival, a device freeing, or its wake time.
		for f.Pending() > 0 {
			f.SetPerItemEstimate(b.e.est.PerItem())
			if f.Pending() < b.opts.MaxBatch { // a full batch leaves either way
				f.SetIdle(b.fleet.idleOrWake(b.e.placed(), b.wake))
			}
			batch, expired, wake := f.Form(time.Now(), false)
			b.retire(expired)
			if len(batch) == 0 {
				if f.Pending() > 0 {
					timer.Reset(time.Until(wake))
					armed = true
				}
				break
			}
			b.dispatch(batch, f.LastClose())
		}
	}
}

// drain force-forms everything pending and hands it to the fleet: the
// shutdown path dispatches queued work rather than dropping it (items
// whose deadline already passed still cancel).
func (b *batcher) drain(f *dispatch.Former) {
	for f.Pending() > 0 {
		batch, expired, _ := f.Form(time.Now(), true)
		b.retire(expired)
		if len(batch) > 0 {
			b.dispatch(batch, f.LastClose())
		}
	}
}

func ticketOf(it *item) dispatch.Ticket {
	return dispatch.Ticket{Class: it.class, Deadline: it.deadline, Enqueued: it.enq, Payload: it}
}

// dispatch stamps one formed batch with its dispatch time and close
// reason and submits it to the fleet.
func (b *batcher) dispatch(batch []dispatch.Ticket, why dispatch.CloseReason) {
	items := make([]*item, len(batch))
	now := time.Now()
	for i, tk := range batch {
		it := tk.Payload.(*item)
		it.dispatch = now
		items[i] = it
	}
	b.depth.Add(-int64(len(items)))
	b.fleet.metrics.batchClose[why].Inc()
	ab := newAPBatch(b.e, items)
	ab.closed = why.String()
	b.fleet.Submit(ab)
}

// retire cancels tickets whose deadline passed while they waited in
// formation.
func (b *batcher) retire(expired []dispatch.Ticket) {
	if len(expired) == 0 {
		return
	}
	b.depth.Add(-int64(len(expired)))
	for _, tk := range expired {
		b.fleet.expireItem(b.e, tk.Payload.(*item), "in formation queue")
	}
}
