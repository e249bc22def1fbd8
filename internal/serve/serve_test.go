package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Devices == 0 {
		opts.Devices = 2
	}
	if opts.MaxModels == 0 {
		opts.MaxModels = 3
	}
	opts.Logf = t.Logf
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postInfer(t *testing.T, url string, req InferRequest) (*InferResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return &out, resp
}

// TestInferBitExactEndToEnd is the subsystem's acceptance test: a batch
// of synthetic inputs posted to /v1/infer returns exactly the logits
// sim.ForwardAP (the rtmap.RunFunctional path) produces on the same
// compiled network and inputs.
func TestInferBitExactEndToEnd(t *testing.T) {
	_, ts := testServer(t, Options{MaxBatch: 4, Window: 5 * time.Millisecond})

	net := model.TinyCNN(model.Config{ActBits: 4, Sparsity: 0.8, Seed: 1})
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	comp, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	inputs := workload.Inputs(net.InputShape, n, 42)

	req := InferRequest{Model: "tinycnn", BitExact: true}
	for _, in := range inputs {
		req.Inputs = append(req.Inputs, in.Data)
	}
	out, resp := postInfer(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if len(out.Results) != n {
		t.Fatalf("got %d results, want %d", len(out.Results), n)
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
				t.Fatalf("input %d logit %d: served %d, RunFunctional %d", i, j, got[j], want.Data[j])
			}
		}
		if out.Results[i].Argmax != want.ArgmaxInt()[0] {
			t.Fatalf("input %d: argmax %d, want %d", i, out.Results[i].Argmax, want.ArgmaxInt()[0])
		}
		if out.Results[i].Batch.Size < 1 || out.Results[i].Batch.SimLatencyNS <= 0 {
			t.Fatalf("input %d: implausible batch accounting %+v", i, out.Results[i].Batch)
		}
	}
}

// Wire compatibility of the retired bit_exact key (the test's name is
// from when it selected between two executors): a body that sets it
// true, sets it false or leaves it out is accepted and answered with the
// same logits, model.ForwardInt's, at one stage and through a pipeline.
func TestReferenceModeMatchesBitExact(t *testing.T) {
	for _, tc := range []struct {
		model string
		opts  Options
	}{
		{"tinycnn", Options{}},
		{"tinyresnet", Options{ShardStages: 2}},
	} {
		_, ts := testServer(t, tc.opts)
		net, err := model.Build(tc.model, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inputs := workload.Inputs(net.InputShape, 2, 7)
		req := InferRequest{Model: tc.model}
		want := make([][]int32, len(inputs))
		for i, in := range inputs {
			req.Inputs = append(req.Inputs, in.Data)
			ref, err := net.ForwardInt(in)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ref.Logits().Data
		}
		omitted, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"bit_exact":true,`, `"bit_exact":false,`, ""} {
			body := append([]byte("{"+key), omitted[1:]...)
			var out InferResponse
			if err := json.Unmarshal(fetch(t, http.MethodPost, ts.URL+"/v1/infer", body), &out); err != nil || len(out.Results) != len(inputs) {
				t.Fatalf("%s with %q: %v, %d results", tc.model, key, err, len(out.Results))
			}
			for i := range inputs {
				if !slices.Equal(out.Results[i].Logits, want[i]) {
					t.Errorf("%s with %q, input %d: logits %v, ForwardInt %v", tc.model, key, i, out.Results[i].Logits, want[i])
				}
				if got, want := out.Results[i].Batch.Stages, tc.opts.ShardStages; got != want {
					t.Errorf("%s with %q, input %d: %d pipeline stages reported, want %d", tc.model, key, i, got, want)
				}
			}
		}
	}
}

func TestInferValidation(t *testing.T) {
	_, ts := testServer(t, Options{})
	one := 1.0
	cases := []struct {
		name string
		req  InferRequest
		code int
	}{
		{"unknown model", InferRequest{Model: "nope", Inputs: [][]float32{{1}}}, http.StatusNotFound},
		{"no inputs", InferRequest{Model: "tinycnn"}, http.StatusBadRequest},
		{"wrong length", InferRequest{Model: "tinycnn", Inputs: [][]float32{{1, 2, 3}}}, http.StatusBadRequest},
		{"bad bits", InferRequest{Model: "tinycnn", ActBits: 99, Inputs: [][]float32{make([]float32, 128)}}, http.StatusBadRequest},
		{"bad sparsity", InferRequest{Model: "tinycnn", Sparsity: &one, Inputs: [][]float32{make([]float32, 128)}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, resp := postInfer(t, ts.URL, tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}

// Omitted build parameters take model.DefaultConfig's values; an explicit
// sparsity 0 is kept, not defaulted.
func TestRequestSpecDefaults(t *testing.T) {
	def := model.DefaultConfig()
	zero := 0.0
	for _, tc := range []struct {
		req  InferRequest
		want Spec
	}{
		{InferRequest{Model: "tinycnn"}, Spec{"tinycnn", def.ActBits, def.Sparsity, def.Seed}},
		{InferRequest{Model: "vgg9", ActBits: 8, Sparsity: &zero, Seed: 3}, Spec{"vgg9", 8, 0, 3}},
	} {
		if got, err := tc.req.spec(); err != nil || got != tc.want {
			t.Errorf("spec(%+v) = %+v, %v; want %+v", tc.req, got, err, tc.want)
		}
	}
}

func TestHealthModelsMetrics(t *testing.T) {
	_, ts := testServer(t, Options{})
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, readAll(t, resp)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/v1/models"); code != http.StatusOK || !strings.Contains(body, "tinycnn") {
		t.Fatalf("/v1/models: %d %q", code, body)
	}

	// One served request must show up in the counters.
	sh, _ := model.ZooShape("tinycnn")
	in := workload.InputData(sh, 1, 9)
	if _, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn", Inputs: in}); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", resp.StatusCode)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"rtmap_requests_total 1", "rtmap_inferences_total 1",
		"rtmap_batches_total", "rtmap_models_loaded 1",
		`rtmap_batch_close_total{reason="idle"} 1`, `rtmap_batch_close_total{reason="window"} 0`,
		"rtmap_request_seconds_bucket", "rtmap_device_sim_busy_ns_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestConcurrentTraffic hammers the server from many goroutines across
// two models — the race-detector target for the batcher/fleet/registry
// interplay.
func TestConcurrentTraffic(t *testing.T) {
	_, ts := testServer(t, Options{Devices: 3, MaxBatch: 4, Window: time.Millisecond})
	models := []string{"tinycnn", "tinyresnet"}
	const workers = 8
	reqs := 6
	if testing.Short() {
		reqs = 3
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := models[w%len(models)]
			sh, _ := model.ZooShape(name)
			data := workload.InputData(sh, 2, uint64(w))
			for i := 0; i < reqs; i++ {
				out, resp := postInfer(t, ts.URL, InferRequest{Model: name, Inputs: data})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: HTTP %d", w, resp.StatusCode)
					return
				}
				if len(out.Results) != 2 {
					t.Errorf("worker %d: %d results", w, len(out.Results))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRegistryEviction forces LRU thrash with MaxModels=1 and checks that
// requests for both models keep succeeding through re-admission.
func TestRegistryEviction(t *testing.T) {
	s, ts := testServer(t, Options{MaxModels: 1, MaxBatch: 2, Window: time.Millisecond})
	for i := 0; i < 3; i++ {
		for _, name := range []string{"tinycnn", "tinyresnet"} {
			sh, _ := model.ZooShape(name)
			data := workload.InputData(sh, 1, uint64(i))
			_, resp := postInfer(t, ts.URL, InferRequest{Model: name, Inputs: data})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d %s: HTTP %d", i, name, resp.StatusCode)
			}
		}
	}
	if n := s.Registry().Len(); n != 1 {
		t.Fatalf("registry holds %d entries, want 1 (LRU)", n)
	}
}
