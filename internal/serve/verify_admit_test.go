package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/verify"
	"rtmap/internal/workload"
)

// A model whose plans fail the plan audit must never be admitted:
// the request gets HTTP 400 with the located diagnostics in the body,
// the registry keeps no resident entry, and the failure is counted on
// /metrics as rtmap_plan_verify_failures_total.
func TestAdmitRejectsVerifierFailure(t *testing.T) {
	s, ts := testServer(t, Options{MaxBatch: 2, Window: time.Millisecond})
	planted := verify.Diagnostic{
		Model: "tinycnn", Layer: 1, LayerName: "conv1", Strip: 0, Tile: 2,
		Op: 7, Invariant: "mask-elision", Detail: "injected for test",
	}
	s.reg.verify = func(*core.Compiled) (bool, error) {
		return false, &verify.Error{Diags: []verify.Diagnostic{planted}}
	}

	sh, _ := model.ZooShape("tinycnn")
	body, _ := json.Marshal(InferRequest{Model: "tinycnn", Inputs: workload.InputData(sh, 1, 3)})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "verifying") {
		t.Fatalf("error %q does not mention verification", er.Error)
	}
	if len(er.Diagnostics) != 1 || er.Diagnostics[0] != planted {
		t.Fatalf("diagnostics %+v, want the planted one", er.Diagnostics)
	}
	if n := s.reg.Len(); n != 0 {
		t.Fatalf("%d resident entries after a rejected admission, want 0", n)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mb), "rtmap_plan_verify_failures_total 1") {
		t.Fatalf("/metrics missing rtmap_plan_verify_failures_total 1:\n%s", mb)
	}
}

// The default admission path runs the real verifier over every compiled
// artifact: a clean zoo model still admits, and the failure counter
// stays at zero.
func TestAdmitRunsRealVerifier(t *testing.T) {
	_, ts := testServer(t, Options{MaxBatch: 2, Window: time.Millisecond})
	sh, _ := model.ZooShape("tinycnn")
	_, resp := postInfer(t, ts.URL, InferRequest{Model: "tinycnn", Inputs: workload.InputData(sh, 1, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mb), "rtmap_plan_verify_failures_total 0") {
		t.Fatalf("/metrics missing rtmap_plan_verify_failures_total 0:\n%s", mb)
	}
}
