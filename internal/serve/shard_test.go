package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/workload"
)

// Sharded serving is only worth having if it stays bit-exact: logits
// streamed through the stage pipeline must equal the single-device
// RunFunctional path, with or without the ignored bit_exact key, and the
// batch accounting must show the batch actually traversed distinct pinned
// devices.
func TestShardedInferBitExact(t *testing.T) {
	_, ts := testServer(t, Options{Devices: 3, ShardStages: 3, MaxBatch: 4, Window: 5 * time.Millisecond})

	net := model.TinyResNet(model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	comp, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	inputs := workload.Inputs(net.InputShape, n, 9)

	req := InferRequest{Model: "tinyresnet", BitExact: true}
	for _, in := range inputs {
		req.Inputs = append(req.Inputs, in.Data)
	}
	out, resp := postInfer(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	for i, in := range inputs {
		tr, err := sim.ForwardAP(comp, in)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Logits()
		got := out.Results[i].Logits
		if len(got) != len(want.Data) {
			t.Fatalf("input %d: %d logits, want %d", i, len(got), len(want.Data))
		}
		for j := range got {
			if got[j] != want.Data[j] {
				t.Fatalf("input %d logit %d: sharded serve %d, RunFunctional %d", i, j, got[j], want.Data[j])
			}
		}
		b := out.Results[i].Batch
		if b.Stages != 3 {
			t.Fatalf("input %d: %d stages, want 3", i, b.Stages)
		}
		if len(b.Path) != 3 {
			t.Fatalf("input %d: device path %v, want 3 hops", i, b.Path)
		}
		seen := map[int]bool{}
		for _, d := range b.Path {
			if seen[d] {
				t.Fatalf("input %d: device %d repeated in path %v (stages must pin to distinct devices)", i, d, b.Path)
			}
			seen[d] = true
		}
		if b.SimLatencyNS <= 0 || b.SimEnergyPJ <= 0 {
			t.Fatalf("input %d: implausible pipeline pricing %+v", i, b)
		}
	}

	// The same body without the bit_exact key — a reference-mode request,
	// when there was one — serves identical logits.
	req.BitExact = false
	ref, resp := postInfer(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	for i := range ref.Results {
		for j, v := range ref.Results[i].Logits {
			if v != out.Results[i].Logits[j] {
				t.Fatalf("input %d logit %d: %d without bit_exact, %d with", i, j, v, out.Results[i].Logits[j])
			}
		}
	}
}

// ShardStages clamps to the fleet size: a single-device fleet falls back
// to whole-model dispatch (no stages reported), and /v1/models reports
// the pipeline layout of sharded residents.
func TestShardStagesClampAndModelListing(t *testing.T) {
	_, ts1 := testServer(t, Options{Devices: 1, ShardStages: 4})
	sh, _ := model.ZooShape("tinycnn")
	in := workload.InputData(sh, 1, 3)
	out, resp := postInfer(t, ts1.URL, InferRequest{Model: "tinycnn", Inputs: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if b := out.Results[0].Batch; b.Stages != 0 || len(b.Path) != 0 {
		t.Fatalf("single-device fleet must not shard, got %+v", b)
	}

	srv, ts2 := testServer(t, Options{Devices: 4, ShardStages: 2})
	if _, resp = postInfer(t, ts2.URL, InferRequest{Model: "tinycnn", Inputs: in}); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	loaded := srv.Registry().Loaded()
	if len(loaded) != 1 {
		t.Fatalf("%d resident models, want 1", len(loaded))
	}
	li := loaded[0]
	if li.Stages != 2 || len(li.StageDevices) != 2 || li.BottleneckNS <= 0 {
		t.Fatalf("loaded info %+v, want 2 pinned stages with a bottleneck price", li)
	}
	if li.StageDevices[0] == li.StageDevices[1] {
		t.Fatalf("stages pinned to the same device: %v", li.StageDevices)
	}
}

// A drain must retire batches that are mid-pipeline (between stages), not
// orphan them: every submitted item gets a result before Shutdown returns.
func TestShardedDrainCompletesInFlight(t *testing.T) {
	s := New(Options{Devices: 3, ShardStages: 3, MaxBatch: 2, Window: time.Millisecond,
		Logf: t.Logf})
	spec := Spec{Model: "tinyresnet", ActBits: 4, Sparsity: 0.8, Seed: 1}
	e, err := s.Registry().Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := model.ZooShape("tinyresnet")
	ins := workload.Inputs(sh, 6, 21)
	items := make([]*item, len(ins))
	for i, in := range ins {
		items[i] = &item{in: in, enq: time.Now(), res: make(chan itemResult, 1)}
		if err := e.batcher.submit(items[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		select {
		case res := <-it.res:
			if res.err != nil {
				t.Errorf("item %d failed during drain: %v", i, res.err)
			} else if res.info.Stages != 3 {
				t.Errorf("item %d: %d stages, want 3", i, res.info.Stages)
			}
		default:
			t.Fatalf("item %d has no result after drain", i)
		}
	}
}

// One executor, every stage count: a batch coalesced from two requests —
// one carrying the ignored bit_exact key, one not — serves ForwardInt's
// logits at ShardStages 0, 1 and 2. At one stage the batch is priced
// exactly as the one-stage sim.PipelineReport.Batch prices it, and
// neither the response nor /v1/models mentions a pipeline.
func TestOneExecutorAcrossStageCounts(t *testing.T) {
	comp := compiledRef(t, "tinyresnet")
	whole, err := sim.AnalyzePipeline(comp, sim.Analyze(comp), 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	inputs := workload.Inputs(comp.Net.InputShape, 2*n, 21)

	for _, stages := range []int{0, 1, 2} {
		// Every head device is held busy, the window cap is long and
		// MaxBatch exact, so the two requests leave formation as one full
		// batch the moment the second arrives.
		s, ts := testServer(t, Options{Devices: 2, ShardStages: stages, MaxBatch: 2 * n, Window: 5 * time.Second})
		e, err := s.Registry().Get(Spec{Model: "tinyresnet", ActBits: 4, Sparsity: 0.8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		heads := len(e.placed().replicas) // one head device per replica
		release := holdFleet(t, s.fleet, e, heads)
		var wg sync.WaitGroup
		bodies := make([][]byte, 2)
		for r := range bodies {
			req := InferRequest{Model: "tinyresnet", BitExact: r == 0}
			for _, in := range inputs[r*n : (r+1)*n] {
				req.Inputs = append(req.Inputs, in.Data)
			}
			body, err := json.Marshal(&req)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[r] = fetch(t, http.MethodPost, ts.URL+"/v1/infer", body)
			}()
		}
		waitFor(t, "the coalesced batch to queue behind the blockers", func() bool { return s.fleet.Pending() == heads+1 })
		release()
		wg.Wait()
		models := fetch(t, http.MethodGet, ts.URL+"/v1/models", nil)

		for r, body := range bodies {
			var out InferResponse
			if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != n {
				t.Fatalf("stages=%d request %d: %v in %s", stages, r, err, body)
			}
			for i, res := range out.Results {
				want, err := comp.Net.ForwardInt(inputs[r*n+i])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Logits, want.Logits().Data) {
					t.Errorf("stages=%d request %d input %d: logits %v, ForwardInt %v", stages, r, i, res.Logits, want.Logits().Data)
				}
				b := res.Batch
				if b.Size != 2*n {
					t.Fatalf("stages=%d: batch of %d, want the two requests coalesced into %d", stages, b.Size, 2*n)
				}
				if br := whole.Batch(b.Size, 1); stages <= 1 && (b.SimLatencyNS != br.LatencyNS || b.SimEnergyPJ != br.EnergyPJ) {
					t.Errorf("stages=%d: priced %g ns / %g pJ, one-stage pipeline %g ns / %g pJ",
						stages, b.SimLatencyNS, b.SimEnergyPJ, br.LatencyNS, br.EnergyPJ)
				}
			}
		}
		// The keys are there at two stages, so their absence below means
		// something.
		docs := map[string][]byte{"response": bodies[0], "/v1/models": models}
		carried := map[string][]string{
			"response":   {`"stages"`, `"path"`},
			"/v1/models": {`"stages"`, `"stage_devices"`, `bottleneck_ns"`},
		}
		for what, doc := range docs {
			keys := carried[what]
			if stages <= 1 {
				keys = append(carried["response"], carried["/v1/models"]...)
			}
			for _, key := range keys {
				if has := bytes.Contains(doc, []byte(key)); has != (stages > 1) {
					t.Errorf("stages=%d: %s carries %s = %v\n%s", stages, what, key, has, doc)
				}
			}
		}
	}
}

// fetch returns the body of a request that must answer 200.
func fetch(t *testing.T, method, url string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("%s %s: HTTP %d, %v: %s", method, url, resp.StatusCode, err, doc)
	}
	return doc
}
