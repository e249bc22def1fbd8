package serve

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/dispatch"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
	"rtmap/internal/workload"
)

// testEntry admits tinycnn through a private registry/fleet pair sized by
// the given batch options, at serve.New's default placement: one
// one-stage replica per device.
func testEntry(t *testing.T, fleet *Fleet, batch BatchOptions) *entry {
	t.Helper()
	reg := NewRegistry(core.DefaultConfig(), 2, fleet, batch, dispatch.Config{Replicas: fleet.NumDevices(), Stages: 1})
	t.Cleanup(reg.Close)
	e, err := reg.Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// newItems builds n standard-class items over random tinycnn inputs.
func newItems(n int) []*item {
	sh, _ := model.ZooShape("tinycnn")
	inputs := workload.Inputs(sh, n, 5)
	items := make([]*item, n)
	for i := range items {
		items[i] = &item{in: inputs[i], enq: time.Now(), res: make(chan itemResult, 1)}
	}
	return items
}

// submitN submits n items one by one, the way n single-input requests
// arrive.
func submitN(t *testing.T, e *entry, n int) []*item {
	t.Helper()
	items := newItems(n)
	for i := range items {
		if err := e.batcher.submit(items[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return items
}

// submitGroup submits n items as one request's group.
func submitGroup(t *testing.T, e *entry, n int) []*item {
	t.Helper()
	items := newItems(n)
	if err := e.batcher.submit(items); err != nil {
		t.Fatal(err)
	}
	return items
}

// holdFleet makes n head devices busy until the returned release runs:
// each gets a batch of one already-expired item whose result channel is
// unbuffered, so the device cancels it at stage 0 and blocks delivering
// the cancellation. n is the entry's replica count.
func holdFleet(t *testing.T, fleet *Fleet, e *entry, n int) (release func()) {
	t.Helper()
	held := make([]*item, n)
	for i := range held {
		held[i] = &item{deadline: time.Unix(1, 0), res: make(chan itemResult)}
		fleet.Submit(newAPBatch(e, held[i:i+1]))
	}
	waitFor(t, "the held devices to pick up their blockers", func() bool {
		busy := 0
		for _, d := range fleet.Stats() {
			busy += d.Queued
		}
		return busy == n && fleet.Pending() == n
	})
	return func() {
		for _, it := range held {
			if res := <-it.res; res.err != errExpired {
				t.Errorf("blocker finished with %v, want errExpired", res.err)
			}
		}
	}
}

// waitFor polls cond (an event the test cannot subscribe to) for up to
// 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitFormed waits until n samples sit in the entry's Former: admitted,
// received from the intake channel, not yet dispatched.
func waitFormed(t *testing.T, e *entry, n int64) {
	t.Helper()
	waitFor(t, "the submitted items to reach formation", func() bool {
		return e.batcher.depth.Load() == n && len(e.batcher.ch) == 0
	})
}

func wantBatchSize(t *testing.T, items []*item, want int) {
	t.Helper()
	for i, it := range items {
		res := <-it.res
		if res.err != nil {
			t.Fatalf("item %d: %v", i, res.err)
		}
		if res.info.Size != want {
			t.Fatalf("item %d ran in a batch of %d, want %d", i, res.info.Size, want)
		}
	}
}

// A request enters formation whole: its group of 4 runs as one batch of
// 4 on an idle fleet, at once. Single items trickling in while the only
// device is busy coalesce and leave on the device-free wake-up — with a
// one-hour window cap, finishing at all is the proof.
func TestBatcherCoalescesBurst(t *testing.T) {
	fleet := NewFleet(1, 16, nil)
	t.Cleanup(fleet.Close)
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 8, Window: time.Hour})

	wantBatchSize(t, submitGroup(t, e, 4), 4)

	release := holdFleet(t, fleet, e, 1)
	items := submitN(t, e, 3)
	waitFormed(t, e, 3)
	if p := fleet.Pending(); p != 1 {
		t.Fatalf("fleet holds %d batches, want only the blocker: items left formation beside a busy device", p)
	}
	release()
	wantBatchSize(t, items, 3)
	if d := e.batcher.depth.Load(); d != 0 {
		t.Fatalf("batcher depth %d after everything dispatched, want 0", d)
	}
}

// MaxBatch splits an oversized group into full batches; nothing waits
// for the window once a batch is full, busy device or not.
func TestBatcherRespectsMaxBatch(t *testing.T) {
	fleet := NewFleet(1, 16, nil)
	t.Cleanup(fleet.Close)
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 2, Window: time.Hour})

	wantBatchSize(t, submitGroup(t, e, 4), 2)

	release := holdFleet(t, fleet, e, 1)
	items := submitN(t, e, 4)
	waitFor(t, "two full batches to queue behind the blocker", func() bool { return fleet.Pending() == 3 })
	release()
	wantBatchSize(t, items, 2)
}

// On serve.New defaults a lightly loaded node never makes a request sit
// out the window: 50 sequential single-input requests each find an idle
// device, so every batch closes by the idle rule and the time from
// enqueue to execution is a small fraction of the window cap.
func TestBatcherDispatchesToIdleFleet(t *testing.T) {
	s, ts := testServer(t, Options{})
	sh, _ := model.ZooShape("tinycnn")
	const n = 50
	queued := make([]time.Duration, n)
	for i := range queued {
		out, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn", Inputs: workload.InputData(sh, 1, uint64(i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
		queued[i] = time.Duration(out.Results[0].Batch.QueueWallNS)
	}
	slices.Sort(queued)
	if med := queued[n/2]; med > s.opts.Window/4 {
		t.Errorf("median enqueue-to-execution %v on an idle fleet, want far below the %v window (max %v)",
			med, s.opts.Window, queued[n-1])
	}
	var body strings.Builder
	if err := s.families.Write(&body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`rtmap_batch_close_total{reason="idle"} %d`, n),
		`rtmap_batch_close_total{reason="window"} 0`,
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body.String())
		}
	}
}

// A batcher registered for a wake-up must hear about a device death: with
// the only device busy and then dead, the held item has nothing left to
// wait for and fails now, not after the (one-hour) window cap.
func TestBatcherWakesOnDeviceFailure(t *testing.T) {
	fleet := NewFleet(1, 16, nil)
	t.Cleanup(fleet.Close)
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 8, Window: time.Hour})

	release := holdFleet(t, fleet, e, 1)
	defer release()
	items := submitN(t, e, 1)
	waitFormed(t, e, 1)
	if err := fleet.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if res := <-items[0].res; !errors.Is(res.err, errNoReplica) {
		t.Fatalf("held item finished with %v, want errNoReplica", res.err)
	}
}

// ... and about a rescale: a batch held behind the one busy replica
// leaves as soon as the entry's placement grows onto an idle device.
func TestBatcherWakesOnRescale(t *testing.T) {
	fleet := NewFleet(2, 16, nil)
	t.Cleanup(fleet.Close)
	reg := NewRegistry(core.DefaultConfig(), 2, fleet, BatchOptions{MaxBatch: 8, Window: time.Hour}, dispatch.Config{Replicas: 1, Stages: 1})
	t.Cleanup(reg.Close)
	e, err := reg.Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	release := holdFleet(t, fleet, e, 1)
	defer release()
	items := submitN(t, e, 2)
	waitFormed(t, e, 2)
	if cfg, err := reg.Rescale(e, dispatch.Config{Replicas: 2, Stages: 1}); err != nil || cfg.Replicas != 2 {
		t.Fatalf("rescale applied %+v, %v; want 2 replicas", cfg, err)
	}
	wantBatchSize(t, items, 2)
}

// depth is the sample backlog admission control prices: whatever mix of
// group sizes, formation expiries and a closing drain the batcher sees,
// every sample that entered leaves the count again.
func TestBatcherDepthReturnsToZero(t *testing.T) {
	fleet := NewFleet(1, 16, nil)
	t.Cleanup(fleet.Close)
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 4, Window: time.Hour})
	b := e.batcher

	release := holdFleet(t, fleet, e, 1)
	var all []*item
	expired := 0
	for _, size := range []int{1, 5, 2, 7, 3} {
		group := newItems(size)
		if size > 2 {
			group[1].deadline = time.Now().Add(-time.Second) // dead on arrival: cancelled in formation
			expired++
		}
		if err := b.submit(group); err != nil {
			t.Fatal(err)
		}
		all = append(all, group...)
	}
	if got := b.arrivals.Load(); got != int64(len(all)) {
		t.Fatalf("arrivals %d after %d samples", got, len(all))
	}
	release()
	all = append(all, submitGroup(t, e, 3)...)
	b.close() // drains whatever is still held
	for i, it := range all {
		var want error
		if !it.deadline.IsZero() {
			want = errExpired
		}
		if res := <-it.res; res.err != want {
			t.Fatalf("item %d finished with %v, want %v", i, res.err, want)
		}
	}
	if d := b.depth.Load(); d != 0 {
		t.Fatalf("depth %d after a mixed run of %d samples (%d expired) and a drain, want 0", d, len(all), expired)
	}
}

// Closing a batcher drains queued items rather than dropping them, and
// subsequent submits fail with errClosed.
func TestBatcherCloseDrains(t *testing.T) {
	fleet := NewFleet(1, 16, nil)
	t.Cleanup(fleet.Close)
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 4, Window: time.Millisecond})

	items := submitN(t, e, 3)
	e.batcher.close()
	for i, it := range items {
		if res := <-it.res; res.err != nil {
			t.Fatalf("drained item %d: %v", i, res.err)
		}
	}
	sh, _ := model.ZooShape("tinycnn")
	late := &item{in: tensor.NewFloat(sh), res: make(chan itemResult, 1)}
	if err := e.batcher.submit([]*item{late}); err != errClosed {
		t.Fatalf("submit after close: %v, want errClosed", err)
	}
}

// Concurrent submits against concurrent close must neither panic (send
// on closed channel) nor deadlock — the RWMutex protocol under race.
func TestBatcherCloseRace(t *testing.T) {
	fleet := NewFleet(2, 64, nil)
	t.Cleanup(fleet.Close)
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 4, Window: time.Millisecond, Queue: 8})

	sh, _ := model.ZooShape("tinycnn")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				it := &item{in: tensor.NewFloat(sh), enq: time.Now(), res: make(chan itemResult, 1)}
				if err := e.batcher.submit([]*item{it}); err != nil {
					return // closed underneath us: expected
				}
				<-it.res
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	e.batcher.close()
	wg.Wait()
}

// Batches spread across devices by queue depth.
func TestFleetSpreadsLoad(t *testing.T) {
	fleet := NewFleet(3, 16, nil)
	t.Cleanup(fleet.Close)
	// MaxBatch 1: every item is its own batch, so 9 batches hit the fleet.
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 1})

	items := submitN(t, e, 9)
	devices := map[int]bool{}
	for _, it := range items {
		res := <-it.res
		if res.err != nil {
			t.Fatal(res.err)
		}
		devices[res.info.Device] = true
	}
	if len(devices) < 2 {
		t.Fatalf("9 single-item batches all ran on one device; want spread (got %v)", devices)
	}
	var total int64
	for _, d := range fleet.Stats() {
		total += d.Batches
	}
	if total != 9 {
		t.Fatalf("fleet executed %d batches, want 9", total)
	}
}

func TestRegistryUnknownModel(t *testing.T) {
	fleet := NewFleet(1, 4, nil)
	t.Cleanup(fleet.Close)
	reg := NewRegistry(core.DefaultConfig(), 2, fleet, BatchOptions{}, dispatch.Config{Replicas: 1, Stages: 1})
	t.Cleanup(reg.Close)
	if _, err := reg.Get(Spec{Model: "missing"}); err == nil {
		t.Fatal("unknown model admitted")
	}
}
