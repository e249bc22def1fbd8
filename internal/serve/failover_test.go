package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/workload"
)

// compiledRef compiles the zoo model outside the server for bit-exact
// comparison against served logits.
func compiledRef(t *testing.T, name string) *core.Compiled {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	net, err := model.Build(name, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func assertBitExact(t *testing.T, comp *core.Compiled, items []*item) {
	t.Helper()
	for i, it := range items {
		res := <-it.res
		if res.err != nil {
			t.Fatalf("item %d failed: %v", i, res.err)
		}
		tr, err := sim.ForwardAP(comp, it.in)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Logits().Data
		if len(res.logits) != len(want) {
			t.Fatalf("item %d: %d logits, want %d", i, len(res.logits), len(want))
		}
		for j := range want {
			if res.logits[j] != want[j] {
				t.Fatalf("item %d logit %d: served %d, RunFunctional %d", i, j, res.logits[j], want[j])
			}
		}
	}
}

// TestFailoverRequeueBitExact is the deterministic core of the fault
// layer: a batch delivered to a dead device must requeue onto the
// surviving replica, execute there, and produce logits bit-exact vs the
// RunFunctional path — with the batch accounting recording the failover.
func TestFailoverRequeueBitExact(t *testing.T) {
	s := New(Options{Devices: 2, Replicas: 2, MaxBatch: 4, Window: time.Millisecond, Logf: t.Logf})
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

	// Hand a batch straight to the dead device's queue — exactly the
	// state of work queued there when the device died.
	sh, _ := model.ZooShape("tinycnn")
	ins := workload.Inputs(sh, 3, 11)
	items := make([]*item, len(ins))
	for i, in := range ins {
		items[i] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
	}
	b := newAPBatch(e, items)
	f := s.fleet
	f.mu.Lock()
	d := f.devices[deadDev]
	d.queued++
	f.pending++
	f.mu.Unlock()
	d.ch <- b

	comp := compiledRef(t, "tinycnn")
	for i, it := range items {
		res := <-it.res
		if res.err != nil {
			t.Fatalf("item %d failed across failover: %v", i, res.err)
		}
		if res.info.Requeues != 1 {
			t.Errorf("item %d: %d requeues recorded, want 1", i, res.info.Requeues)
		}
		if res.info.Device == deadDev {
			t.Errorf("item %d executed on the dead device %d", i, deadDev)
		}
		if res.info.Replica != e.placed().replicas[1].id {
			t.Errorf("item %d served by replica %d, want surviving replica %d",
				i, res.info.Replica, e.placed().replicas[1].id)
		}
		tr, err := sim.ForwardAP(comp, it.in)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Logits().Data
		for j := range want {
			if res.logits[j] != want[j] {
				t.Fatalf("item %d logit %d: failover served %d, RunFunctional %d", i, j, res.logits[j], want[j])
			}
		}
	}
}

// The delay estimator amortises a batch over the replicas that run
// batches side by side — the live ones. With one of two replicas dead the
// deployment retires items at one device's rate, and the per-item
// interval admission prices the queue with must say so: counting the
// dead replica halves it (and doubles what -max-queue-delay lets in).
func TestDelayEstimatorCountsLiveReplicas(t *testing.T) {
	// Dilated, so a batch holds its device for at least its modeled
	// latency × WallScale whatever the host.
	const wallScale, n = 2000, 4
	s := New(Options{Devices: 2, Replicas: 2, MaxBatch: n, WallScale: wallScale, Logf: t.Logf})
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
	if err := s.FailDevice(e.placed().replicas[0].devs[0]); err != nil {
		t.Fatal(err)
	}
	var exec time.Duration
	for round := uint64(0); round < 3; round++ {
		items := makeItems(t, "tinycnn", n, round)
		s.fleet.Submit(newAPBatch(e, items))
		for i, it := range items {
			res := <-it.res
			if res.err != nil {
				t.Fatalf("round %d item %d: %v", round, i, res.err)
			}
			exec = time.Duration(res.info.SimLatencyNS * wallScale)
		}
	}
	// The estimator observes a batch after delivering it, before retiring it.
	waitFor(t, "the last batch to retire", func() bool { return s.fleet.Pending() == 0 })
	if got, floor := e.est.PerItem(), exec/n; got < floor {
		t.Errorf("per-item interval %v with one of two replicas alive, want at least exec/items = %v (exec/(2·items) = %v amortises over the dead replica)",
			got, floor, floor/2)
	}
}

// Killing a device mid-run with queued and in-flight batches (the
// ISSUE's failover acceptance): every submitted item completes, logits
// stay bit-exact vs RunFunctional, and the drained fleet's accounting
// returns to zero. Run under -race in CI.
func TestFailoverUnderLoadBitExact(t *testing.T) {
	s := New(Options{Devices: 4, Replicas: 2, MaxBatch: 2, Window: time.Millisecond, Logf: t.Logf})
	e, err := s.Registry().Get(Spec{Model: "tinyresnet", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 24
	if testing.Short() {
		n = 12
	}
	sh, _ := model.ZooShape("tinyresnet")
	ins := workload.Inputs(sh, n, 31)
	items := make([]*item, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, in := range ins {
			items[i] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
			if err := e.batcher.submit(items[i : i+1]); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if i == n/2 { // kill replica 0's device with work queued and in flight
				if err := s.FailDevice(e.placed().replicas[0].devs[0]); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	assertBitExact(t, compiledRef(t, "tinyresnet"), items)
	if p := s.fleet.Pending(); p != 0 {
		t.Fatalf("drained fleet reports %d pending batches, want 0", p)
	}
	for _, d := range s.fleet.Stats() {
		if d.Queued != 0 {
			t.Fatalf("drained device %d reports Queued %d, want 0", d.ID, d.Queued)
		}
	}
}

// Sharded + replicated: losing one stage device of one replica restarts
// affected batches from stage 0 on the surviving replica, bit-exactly.
func TestShardedFailoverBitExact(t *testing.T) {
	s := New(Options{Devices: 4, ShardStages: 2, Replicas: 2, MaxBatch: 2,
		Window: time.Millisecond, Logf: t.Logf})
	e, err := s.Registry().Get(Spec{Model: "tinyresnet", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.placed().replicas) != 2 || len(e.placed().replicas[0].devs) != 2 {
		t.Fatalf("placement %+v, want 2 replicas × 2 stages", e.placed().replicas)
	}
	seen := map[int]bool{}
	for _, rep := range e.placed().replicas {
		for _, d := range rep.devs {
			if seen[d] {
				t.Fatalf("device %d appears in two placements (must be disjoint)", d)
			}
			seen[d] = true
		}
	}

	n := 12
	if testing.Short() {
		n = 6
	}
	sh, _ := model.ZooShape("tinyresnet")
	ins := workload.Inputs(sh, n, 17)
	items := make([]*item, n)
	for i, in := range ins {
		items[i] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
		if err := e.batcher.submit(items[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if i == n/2 { // kill the second stage of replica 0 mid-pipeline
			if err := s.FailDevice(e.placed().replicas[0].devs[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, compiledRef(t, "tinyresnet"), items)
}

// When every replica is gone the batch must fail cleanly with
// errNoReplica after bounded attempts — not spin or deadlock.
func TestFailoverExhaustionFailsCleanly(t *testing.T) {
	s := New(Options{Devices: 2, Replicas: 2, MaxBatch: 2, Window: time.Millisecond, Logf: t.Logf})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.FailDevice(i); err != nil {
			t.Fatal(err)
		}
	}
	sh, _ := model.ZooShape("tinycnn")
	it := &item{in: workload.Inputs(sh, 1, 3)[0], enq: time.Now(), res: make(chan itemResult, 1)}
	if err := e.batcher.submit([]*item{it}); err != nil {
		t.Fatal(err)
	}
	res := <-it.res
	if res.err == nil {
		t.Fatal("batch succeeded with every replica dead")
	}
	if !strings.Contains(res.err.Error(), "no live replica") {
		t.Fatalf("error %v, want no-live-replica", res.err)
	}
}

// Admitting a model with no live capacity must answer 503 — the same
// classification as a resident model whose replicas all died, since the
// condition is the same.
func TestAdmitWithoutCapacityIs503(t *testing.T) {
	s, ts := testServer(t, Options{Devices: 1, Replicas: 2, MaxBatch: 2, Window: time.Millisecond})
	if err := s.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	sh, _ := model.ZooShape("tinycnn")
	in := workload.InputData(sh, 1, 3)
	_, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn", Inputs: in})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission with zero live devices: HTTP %d, want 503", resp.StatusCode)
	}
}

// The HTTP surface of replication: /v1/models reports placements and
// liveness, /metrics exposes the health gauges, and inference keeps
// succeeding after a device failure.
func TestReplicaHealthEndpoints(t *testing.T) {
	s, ts := testServer(t, Options{Devices: 3, Replicas: 2, MaxBatch: 2, Window: time.Millisecond})
	sh, _ := model.ZooShape("tinycnn")
	in := workload.InputData(sh, 1, 5)
	if _, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn", Inputs: in}); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", resp.StatusCode)
	}

	loaded := s.Registry().Loaded()
	if len(loaded) != 1 {
		t.Fatalf("%d resident models, want 1", len(loaded))
	}
	li := loaded[0]
	if li.Replicas != 2 || li.LiveReplicas != 2 || len(li.ReplicaDevices) != 2 {
		t.Fatalf("loaded info %+v, want 2 live replicas with devices", li)
	}

	if err := s.FailDevice(li.ReplicaDevices[0][0]); err != nil {
		t.Fatal(err)
	}
	li = s.Registry().Loaded()[0]
	if li.LiveReplicas != 1 || li.ReplicaLive[0] || !li.ReplicaLive[1] {
		t.Fatalf("after failure: %+v, want exactly replica 1 live", li)
	}
	if _, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn", Inputs: in}); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer after device loss: HTTP %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"rtmap_device_up", "rtmap_device_failures_total 1",
		"rtmap_model_replicas{", "rtmap_model_replicas_live{",
		"rtmap_requeued_batches_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	models := getModels(t, ts.URL)
	if len(models.Loaded) != 1 || models.Loaded[0].LiveReplicas != 1 {
		t.Fatalf("/v1/models loaded %+v, want live_replicas 1", models.Loaded)
	}
}

// getModels reads /v1/models.
func getModels(t *testing.T, url string) modelsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	return models
}

// Every served model is a placement, and serve.New sets its starting
// shape in one rule: a one-stage deployment that does not autoscale gets
// one one-device replica per device unless a replica count was asked
// for, so any live device takes the next batch and a dead one drops out.
// Every other configuration keeps its count. For the default, single-item
// batches spread over the devices, and after a device failure the
// survivors answer bit-exactly.
func TestStartPlacementPerConfiguration(t *testing.T) {
	comp := compiledRef(t, "tinycnn")
	inputs := workload.Inputs(comp.Net.InputShape, 8, 17)
	// infer posts each input as its own request, checks the logits against
	// the compiled reference, and returns the devices that served them.
	infer := func(t *testing.T, url string) map[int]bool {
		t.Helper()
		devices := map[int]bool{}
		for i, in := range inputs {
			out, resp := postInfer(t, url, InferRequest{Model: "tinycnn", Inputs: [][]float32{in.Data}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("input %d: HTTP %d", i, resp.StatusCode)
			}
			tr, err := sim.ForwardAP(comp, in)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := out.Results[0].Logits, tr.Logits().Data; !slices.Equal(got, want) {
				t.Fatalf("input %d: served %v, RunFunctional %v", i, got, want)
			}
			devices[out.Results[0].Batch.Device] = true
		}
		return devices
	}

	for _, tc := range []struct {
		name             string
		opts             Options
		replicas, stages int
	}{
		{"default", Options{}, 4, 1},
		{"replicas 2", Options{Replicas: 2}, 2, 1},
		{"shard-stages 2", Options{ShardStages: 2}, 1, 2},
		{"autoscale", Options{Autoscale: true, AutoscaleInterval: time.Hour}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Devices = 4
			s, ts := testServer(t, opts)
			devices := infer(t, ts.URL)
			models := getModels(t, ts.URL)
			if len(models.Loaded) != 1 {
				t.Fatalf("%d resident models, want 1", len(models.Loaded))
			}
			li := models.Loaded[0]
			if li.Replicas != tc.replicas || li.LiveReplicas != tc.replicas || len(li.ReplicaDevices) != tc.replicas {
				t.Fatalf("/v1/models lists %+v, want %d live replicas", li, tc.replicas)
			}
			for _, devs := range li.ReplicaDevices {
				if len(devs) != tc.stages {
					t.Fatalf("replica devices %v, want %d per replica", li.ReplicaDevices, tc.stages)
				}
			}
			if tc.name != "default" {
				return
			}
			if len(devices) < 2 {
				t.Fatalf("%d single-item batches all ran on device %v; want them spread", len(inputs), devices)
			}
			dead := li.ReplicaDevices[0][0]
			if err := s.FailDevice(dead); err != nil {
				t.Fatal(err)
			}
			if li := getModels(t, ts.URL).Loaded[0]; li.LiveReplicas != 3 || li.ReplicaLive[0] {
				t.Fatalf("after failing device %d: %+v, want live_replicas 3 without replica 0", dead, li)
			}
			if devices := infer(t, ts.URL); devices[dead] {
				t.Fatalf("a batch ran on dead device %d", dead)
			}
		})
	}
}

// File-backed models: a valid model file serves bit-exactly under its
// registered name; a malformed one maps to HTTP 400 through the admit
// path (never a panic or a 500).
func TestFileModelAdmitAndBadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	net := model.TinyCNN(model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err := net.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"format":"rtmap-twn-v1","name":"x","input_nchw":[1,1,1,1],`), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Options{
		MaxBatch: 2, Window: time.Millisecond,
		ModelFiles: map[string]string{
			"filecnn": good, "badcnn": bad,
			"gonecnn": filepath.Join(dir, "missing.json"),
		},
	})

	in := workload.Inputs(net.InputShape, 2, 13)
	req := InferRequest{Model: "filecnn", BitExact: true}
	for _, x := range in {
		req.Inputs = append(req.Inputs, x.Data)
	}
	out, resp := postInfer(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("file model: HTTP %d", resp.StatusCode)
	}
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	comp, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range in {
		tr, err := sim.ForwardAP(comp, x)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Logits().Data
		for j := range want {
			if out.Results[i].Logits[j] != want[j] {
				t.Fatalf("file model input %d logit %d: %d != %d", i, j, out.Results[i].Logits[j], want[j])
			}
		}
	}

	// Build parameters are inert for file models: different seeds/bits
	// must share one registry slot, not multiply residents.
	req.Seed = 7
	req.ActBits = 6
	if _, resp := postInfer(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("file model with different build params: HTTP %d", resp.StatusCode)
	}
	if n := s.Registry().Len(); n != 1 {
		t.Fatalf("file model occupies %d registry slots across build params, want 1", n)
	}

	_, resp = postInfer(t, ts.URL, InferRequest{Model: "badcnn",
		Inputs: [][]float32{make([]float32, 1)}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed model file: HTTP %d, want 400", resp.StatusCode)
	}
	// An unreadable path is the operator's fault, not the client's.
	_, resp = postInfer(t, ts.URL, InferRequest{Model: "gonecnn",
		Inputs: [][]float32{make([]float32, 1)}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unreadable model file: HTTP %d, want 500", resp.StatusCode)
	}
	_, resp = postInfer(t, ts.URL, InferRequest{Model: "missing",
		Inputs: [][]float32{make([]float32, 1)}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: HTTP %d, want 404", resp.StatusCode)
	}
}
