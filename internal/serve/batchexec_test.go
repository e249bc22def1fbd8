package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"rtmap/internal/workload"
)

// makeItems builds n queued inference items over random inputs.
func makeItems(t *testing.T, model string, n int, seed uint64) []*item {
	t.Helper()
	sh, ok := ZooShape(model)
	if !ok {
		t.Fatalf("no zoo shape for %s", model)
	}
	ins := workload.Inputs(sh, n, seed)
	items := make([]*item, n)
	for i, in := range ins {
		items[i] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
	}
	return items
}

// The device executor steps a whole batch through sim.StepBatch; a
// batch of 8 must come back bit-identical to per-item RunFunctional.
func TestBatchedExecBitExact(t *testing.T) {
	s := New(Options{Devices: 2, MaxBatch: 8, Window: time.Millisecond, Logf: t.Logf})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	items := makeItems(t, "tinycnn", 8, 77)
	s.fleet.Submit(newAPBatch(e, items))
	assertBitExact(t, compiledRef(t, "tinycnn"), items)
}

// Same property across a failover requeue: a full batch queued on a dead
// device must fail over to the surviving replica and still deliver
// bit-exact logits through the batched engine.
func TestBatchedFailoverRequeueBitExact(t *testing.T) {
	s := New(Options{Devices: 2, Replicas: 2, MaxBatch: 8, Window: time.Millisecond, Logf: t.Logf})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.placed().replicas) != 2 {
		t.Fatalf("%d replicas placed, want 2", len(e.placed().replicas))
	}
	deadDev := e.placed().replicas[0].devs[0]
	if err := s.FailDevice(deadDev); err != nil {
		t.Fatal(err)
	}
	items := makeItems(t, "tinycnn", 8, 78)
	b := newAPBatch(e, items)
	f := s.fleet
	f.mu.Lock()
	d := f.devices[deadDev]
	d.queued++
	f.pending++
	f.mu.Unlock()
	d.ch <- b

	assertBitExact(t, compiledRef(t, "tinycnn"), items)
}

// A sharded entry's batch advances stage by stage through StepBatch; an
// 8-item mixed-mode batch must stay bit-exact end to end.
func TestBatchedShardedExecBitExact(t *testing.T) {
	s := New(Options{Devices: 2, ShardStages: 2, MaxBatch: 8, Window: time.Millisecond, Logf: t.Logf})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	e, err := s.Registry().Get(Spec{Model: "tinyresnet", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.placed().stages() != 2 {
		t.Fatal("entry not sharded")
	}
	items := makeItems(t, "tinyresnet", 8, 79)
	s.fleet.Submit(newAPBatch(e, items))
	assertBitExact(t, compiledRef(t, "tinyresnet"), items)
}

// An item of a batch is answered once. A second delivery would block a
// device goroutine forever on the result channel, so it is a panic — an
// internal invariant, named after its subsystem.
func TestDeliverTwicePanics(t *testing.T) {
	b := newAPBatch(&entry{}, []*item{{res: make(chan itemResult, 1)}})
	b.deliver(0, itemResult{err: errExpired})
	if res := <-b.items[0].res; res.err != errExpired || !b.done[0] {
		t.Fatalf("first delivery: result %+v, done %v", res, b.done[0])
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "serve: ") {
			t.Errorf("second delivery: recovered %q, want a panic with the serve: prefix", msg)
		}
	}()
	b.deliver(0, itemResult{})
}

// BenchmarkServeSubmit measures the fleet submit → batched execution →
// result delivery path on coalesced batches of 8 (the serving layer's
// steady-state unit of work).
func BenchmarkServeSubmit(b *testing.B) {
	s := New(Options{Devices: 1, MaxBatch: 8, Window: time.Millisecond})
	defer s.Shutdown(context.Background())
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sh, _ := ZooShape("tinycnn")
	ins := workload.Inputs(sh, 8, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]*item, len(ins))
		for j, in := range ins {
			items[j] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
		}
		s.fleet.Submit(newAPBatch(e, items))
		for _, it := range items {
			if res := <-it.res; res.err != nil {
				b.Fatal(res.err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ins)), "ns/infer")
}
