package serve

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// errNoReplica reports a batch that found no live replica to run on. The
// HTTP layer maps it to 503: the model is resident but its capacity is
// gone.
var errNoReplica = errors.New("serve: no live replica for model")

// errExpired reports an item cancelled because its deadline passed
// before execution (in the formation queue, on a device queue, or
// across a failover detour). The HTTP layer maps it to 503 with kind
// "expired": the server was too slow for the request's budget, and the
// work was shed rather than executed late.
var errExpired = errors.New("serve: deadline expired before execution")

// maxFailoverAttempts bounds how many device failures one batch may
// survive before its items fail: a batch is requeued at most this many
// times.
const maxFailoverAttempts = 3

// FailDevice marks a fleet device dead, simulating a device loss. The
// device's goroutine stays up to drain its queue: every batch queued or
// arriving on the dead device — at whichever stage of its pipeline —
// is requeued onto a surviving replica instead of executing, so no
// admitted work is lost as long as a live replica remains. (The one
// batch already executing at the failure instant completes on the dead
// device; the mark is observed at each dequeue.) Re-execution is
// deterministic, so failover preserves bit-exact results. Failing an
// already-dead device is a no-op.
func (f *Fleet) FailDevice(id int) error {
	f.mu.Lock()
	if id < 0 || id >= len(f.devices) {
		f.mu.Unlock()
		return fmt.Errorf("serve: no device %d in a fleet of %d", id, len(f.devices))
	}
	already := f.devices[id].dead
	f.devices[id].dead = true
	f.mu.Unlock()
	// A batcher waiting on this device must look again: its placement may
	// have nothing alive left, and then its batch should fail now.
	f.wakeBatchers()
	if !already {
		f.metrics.deviceFailures.Inc()
	}
	return nil
}

// requeue re-dispatches a batch that reached a dead device. The batch
// restarts from stage 0 on the new replica: partial pipeline state is
// discarded and recomputed (deterministically, so logits stay
// bit-exact), and items that already received a result are skipped via
// apBatch.done. The pending bump for the new dispatch lands before the
// dead device retires the current receive, so a drain never races past a
// requeue in flight; the send runs off this goroutine so the dead device
// keeps draining even when the target queue is full.
func (f *Fleet) requeue(from *device, b *apBatch) {
	now := time.Now()
	b.stage, b.runs, b.path = 0, nil, nil
	b.simNS, b.simPJ, b.execNS = 0, 0, 0
	b.hop = time.Time{}
	b.attempts++
	if b.attempts > maxFailoverAttempts {
		fail(b, fmt.Errorf("serve: batch lost device %d and exhausted %d failover attempts",
			from.id, maxFailoverAttempts))
		return
	}
	// Deadlines don't survive the detour for free: items that expired
	// while the batch sat on the dead device's queue are cancelled here,
	// never re-executed. A batch with nothing left alive retires.
	if f.expireDue(b, now, "on failover from device "+strconv.Itoa(from.id)) == 0 {
		return
	}
	// A rescale may have replaced the entry's placement while this batch
	// was queued; re-read it so the retry lands on current replicas.
	b.pl = b.e.placed()
	f.mu.Lock()
	d, ok := f.placeLocked(b)
	if !ok {
		f.mu.Unlock()
		fail(b, errNoReplica)
		return
	}
	d.queued++
	f.pending++
	f.mu.Unlock()
	f.metrics.requeues.Inc()
	// Cold path: the batch just lost its device, so span formatting cost
	// is irrelevant. Device records the DEAD device the batch bounced
	// off; the new placement shows up in the retry's queue/stage spans.
	for i, it := range b.items {
		if !b.done[i] && b.firstTraced(i) {
			f.itemSpan(it, b, "requeue", from.id, -1, now, 0,
				"attempt "+strconv.Itoa(b.attempts))
		}
	}
	go func() { d.ch <- b }()
}
