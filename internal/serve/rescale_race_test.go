package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/dispatch"
	"rtmap/internal/workload"
)

// Rescale publishes a fresh placement while admissions and in-flight
// Submits are reading the old one. This test races all three under the
// race detector: workers pump items through one entry's batcher,
// admitters pull fresh entries in and out of the registry (including
// re-admissions of the entry being rescaled), and a rescaler flips the
// entry's replica/stage config every few hundred microseconds. The
// invariants: no data race, no panic, and every submitted item gets an
// answer — in-flight batches finish on the placement they dispatched
// with, so a mid-flight flip never strands or corrupts them.
func TestRescaleRacesAdmitsAndSubmits(t *testing.T) {
	fleet := NewFleet(4, 64, nil)
	t.Cleanup(fleet.Close)
	reg := NewRegistry(core.DefaultConfig(), 3, fleet, BatchOptions{MaxBatch: 2, Window: time.Millisecond}, 0, 1)
	t.Cleanup(reg.Close)

	spec := Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1}
	e, err := reg.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The admit churn below legitimately evicts this entry (LRU); every
	// participant re-Gets through cur and treats errClosed as the
	// eviction signal, exactly like the HTTP handler's retry contract.
	var cur atomic.Pointer[entry]
	cur.Store(e)
	readmit := func() (*entry, error) {
		ne, err := reg.Get(spec)
		if err != nil {
			return nil, err
		}
		cur.Store(ne)
		return ne, nil
	}

	sh, _ := ZooShape("tinycnn")
	inputs := workload.Inputs(sh, 8, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Submitters: closed-loop items through the entry's batcher.
	var served int64
	var servedMu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				it := &item{in: inputs[(w+i)%len(inputs)], enq: time.Now(), res: make(chan itemResult, 1)}
				if err := cur.Load().batcher.submit([]*item{it}); err != nil {
					if errors.Is(err, errClosed) {
						if _, err := readmit(); err != nil {
							t.Errorf("re-admit: %v", err)
							return
						}
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				res := <-it.res
				if res.err != nil {
					if errors.Is(res.err, errClosed) {
						continue // evicted with the item queued: clean refusal
					}
					t.Errorf("item failed mid-rescale: %v", res.err)
					return
				}
				servedMu.Lock()
				served++
				servedMu.Unlock()
			}
		}(w)
	}

	// Admitters: churn other entries through the registry (evictions
	// included — maxModels is 3) and keep re-Get-ing the rescaled spec.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			specs := []Spec{
				spec,
				{Model: "tinyresnet", ActBits: 4, Sparsity: 0.8, Seed: 1},
				{Model: "tinycnn", ActBits: 2, Sparsity: 0.8, Seed: uint64(2 + w)},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := reg.Get(specs[i%len(specs)]); err != nil {
					t.Errorf("admit: %v", err)
					return
				}
			}
		}(w)
	}

	// Rescaler: flip the entry between 1 and 2 replicas, and through a
	// 2-stage pipeline, while everything above is running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		configs := []dispatch.Config{
			{Replicas: 1, Stages: 1},
			{Replicas: 2, Stages: 1},
			{Replicas: 1, Stages: 2},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reg.Rescale(cur.Load(), configs[i%len(configs)]); err != nil {
				t.Errorf("rescale: %v", err)
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if served == 0 {
		t.Fatal("no item was served during the race window")
	}
	t.Logf("served %d items across continuous rescales", served)
}
