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

// A model the dataflow check refutes must never be admitted: HTTP 400
// with the located diagnostics, no resident entry, and the failure
// counted on /metrics as rtmap_plan_verify_failures_total, the one
// series both passes of the admission proof share.
func TestAdmitRejectsDataflowFailure(t *testing.T) {
	s, ts := testServer(t, Options{MaxBatch: 2, Window: time.Millisecond})
	planted := verify.Diagnostic{
		Model: "tinycnn", Layer: 2, LayerName: "q1", Strip: -1, Tile: -1,
		Op: -1, Invariant: "dataflow-overflow", Detail: "injected for test",
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

// The first admission of an artifact pays the full admission proof and
// persists a certificate; a later admission of the
// identical artifact (here: a second server sharing the artifact cache)
// trusts the stored certificate instead of re-verifying. The cache's
// own hit/miss counters are the proof that verification was skipped.
func TestAdmitCertificateHitSkipsReverification(t *testing.T) {
	cache := core.NewCache()
	opts := Options{MaxBatch: 2, Window: time.Millisecond, Cache: cache}

	_, ts1 := testServer(t, opts)
	sh, _ := model.ZooShape("tinycnn")
	req := InferRequest{Model: "tinycnn", Inputs: workload.InputData(sh, 1, 3)}
	if _, resp := postInfer(t, ts1.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	if st := cache.Stats(); st.CertMisses != 1 || st.CertHits != 0 {
		t.Fatalf("after first admission: %d cert misses, %d hits, want 1/0", st.CertMisses, st.CertHits)
	}
	mb := getMetrics(t, ts1.URL)
	if !strings.Contains(mb, "rtmap_certificate_misses_total 1") {
		t.Fatalf("first server /metrics missing rtmap_certificate_misses_total 1:\n%s", mb)
	}

	_, ts2 := testServer(t, opts)
	if _, resp := postInfer(t, ts2.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	st := cache.Stats()
	if st.CertHits != 1 {
		t.Fatalf("after re-admission: %d cert hits, want 1 (re-verified instead of trusting the certificate)", st.CertHits)
	}
	if st.CertMisses != 1 {
		t.Fatalf("after re-admission: %d cert misses, want still 1", st.CertMisses)
	}
	mb = getMetrics(t, ts2.URL)
	if !strings.Contains(mb, "rtmap_certificate_hits_total 1") {
		t.Fatalf("second server /metrics missing rtmap_certificate_hits_total 1:\n%s", mb)
	}
	if !strings.Contains(mb, "rtmap_certificate_misses_total 0") {
		t.Fatalf("second server /metrics missing rtmap_certificate_misses_total 0:\n%s", mb)
	}
}

// getMetrics fetches the /metrics exposition body.
func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
