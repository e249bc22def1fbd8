package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"rtmap/internal/model"
)

// A drain whose context expires must return promptly with the stranded
// count instead of waiting for the pipeline forever — the bound behind
// rtmap-serve's -drain-timeout guarantee that SIGTERM never hangs.
func TestFleetCloseCtxBoundedByContext(t *testing.T) {
	fleet := NewFleet(1, 16, nil)
	// Dilate the single device hard enough that the submitted batch is
	// still executing when the drain bound fires. tinycnn's simulated
	// batch latency is microseconds; 1e6 stretches it to seconds.
	fleet.WallScale = 1e6
	e := testEntry(t, fleet, BatchOptions{MaxBatch: 1})

	items := submitN(t, e, 1)
	e.batcher.close() // hand the batch to the fleet

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := fleet.CloseCtx(ctx)
	waited := time.Since(start)
	if err == nil {
		t.Fatal("CloseCtx returned nil with a batch in flight")
	}
	if !strings.Contains(err.Error(), "drain timed out") {
		t.Fatalf("CloseCtx error %q, want a drain-timeout report", err)
	}
	if waited > 2*time.Second {
		t.Fatalf("CloseCtx took %v, want ~the 100ms bound", waited)
	}
	// The stranded batch still retires (channels stay open past a timed-
	// out drain precisely so in-flight work can finish delivering).
	res := <-items[0].res
	if res.err != nil {
		t.Fatalf("stranded batch failed: %v", res.err)
	}
}

// An idle fleet drains immediately and a second close is a no-op.
func TestFleetCloseCtxIdempotent(t *testing.T) {
	fleet := NewFleet(2, 16, nil)
	if err := fleet.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Once Shutdown begins, new /v1/infer requests are refused with a clean
// retryable rejection (503 + Retry-After) rather than queued behind the
// drain — the router's failover relies on this to move traffic off a
// draining node without dropping anything.
func TestDrainingServerRejectsNewInfers(t *testing.T) {
	s, ts := testServer(t, Options{MaxBatch: 2, Window: time.Millisecond})

	// Prime: the server works before the drain.
	sh, _ := model.ZooShape("tinycnn")
	req := InferRequest{Model: "tinycnn", Inputs: [][]float32{make([]float32, sh.C*sh.H*sh.W)}}
	if _, resp := postInfer(t, ts.URL, req); resp.StatusCode != 200 {
		t.Fatalf("pre-drain infer: HTTP %d", resp.StatusCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, resp := postInfer(t, ts.URL, req)
	if resp.StatusCode != 503 {
		t.Fatalf("infer during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 is missing Retry-After")
	}
}
