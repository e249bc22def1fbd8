package rtmap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rtmap/internal/model"
	"rtmap/internal/workload"
)

// buildTools compiles the given cmd/ binaries into a temp dir.
func buildTools(t *testing.T, tools ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, tool := range tools {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "rtmap/cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", tool, err, out)
		}
	}
	return bin
}

// TestCmdSmoke builds every cmd/ binary and runs each one end-to-end on a
// tiny model (or -h where the tool's real run would be slow), so a broken
// flag surface or a panic in a main package fails the suite. The tool
// list is the cmd/ directory itself: a binary without a case fails, so an
// added or deleted tool cannot drift from it. rtmap-serve's case is
// TestServeSmoke.
func TestCmdSmoke(t *testing.T) {
	cases := []struct {
		tool string
		args []string
		want string // substring expected in combined output
	}{
		{"rtmap-bench", []string{"-h"}, "table2"},
		{"rtmap-bench", []string{"-shards", "3", "-net", "tinycnn", "-q"}, "Pipeline-sharding frontier"},
		{"rtmap-bench", []string{"-shards", "3", "-net", "tinycnn", "-q", "-json"}, `"steady_infer_per_s"`},
		{"rtmap-compile", []string{"-model", "tinycnn"}, "tinycnn"},
		{"rtmap-compile", []string{"-model", "tinycnn", "-no-cse", "-serial", "-no-cache"}, "arrays"},
		{"rtmap-dfg", []string{"-eq1"}, "unroll+CSE"},
		{"rtmap-sim", []string{"-model", "tinycnn", "-inputs", "1"}, "OK"},
		{"rtmap-sim", []string{"-model", "tinycnn", "-inputs", "1", "-json"}, `"ok": true`},
		{"rtmap-load", []string{"-h"}, "closed-loop"},
		{"rtmap-router", []string{"-h"}, "health probe period"},
		{"rtmap-trace", []string{"-h"}, "/debug/traces"},
		{"rtmap-vet", []string{"-h"}, "plans"},
		// The older spelling reaches the one model mode: the part-view
		// cross-check runs beside the admission proof.
		{"rtmap-vet", []string{"-dataflow"}, "tinycnn: certified 3 programs and 6 part views"},
		// Lint mode over the repo: exit 0, no findings printed.
		{"rtmap-vet", []string{"./..."}, ""},
	}
	// Bad models and build points exit 1 with one error line: the zoo
	// names for an unknown model, the range for a bad parameter.
	zooList := strings.Join(model.ZooNames(), "|")
	bad := []struct {
		tool string
		args []string
		want string
	}{
		{"rtmap-sim", []string{"-model", "tinycnn", "-bits", "9"}, "activation bits 9 out of range"},
		{"rtmap-compile", []string{"-model", "vgg9", "-sparsity", "1"}, "sparsity 1 out of range"},
		{"rtmap-sim", []string{"-model", "nosuch"}, zooList},
		{"rtmap-bench", []string{"-shards", "2", "-net", "nosuch"}, zooList},
		{"rtmap-bench", []string{"-table2", "-net", "nosuch", "-samples", "0"}, `"nosuch" (networks: resnet18|vgg9|vgg11)`},
	}
	tested := map[string]bool{"rtmap-serve": true}
	for _, tc := range cases {
		tested[tc.tool] = true
	}
	ents, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var tools []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if !tested[e.Name()] {
			t.Errorf("cmd/%s has no smoke case", e.Name())
		}
		if e.Name() != "rtmap-serve" {
			tools = append(tools, e.Name())
		}
	}
	if testing.Short() {
		t.Skip("builds the command-line tools")
	}
	bin := buildTools(t, tools...)

	for _, tc := range cases {
		name := tc.tool + " " + strings.Join(tc.args, " ")
		cmd := exec.Command(filepath.Join(bin, tc.tool), tc.args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			// -h exits 0 under the flag package; any other failure is real.
			if ee, ok := err.(*exec.ExitError); !ok || len(tc.args) == 0 || tc.args[0] != "-h" || ee.ExitCode() != 0 {
				t.Errorf("%s: %v\n%s", name, err, out)
				continue
			}
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output missing %q:\n%s", name, tc.want, out)
		}
	}
	for _, tc := range bad {
		name := tc.tool + " " + strings.Join(tc.args, " ")
		out, err := exec.Command(filepath.Join(bin, tc.tool), tc.args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: want exit status 1, got %v\n%s", name, err, out)
		}
		if lines := strings.Count(strings.TrimSpace(string(out)), "\n") + 1; lines != 1 ||
			strings.Contains(string(out), "panic:") || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: want one error line naming %q and no panic, got:\n%s", name, tc.want, out)
		}
	}
}

// TestServeSmoke boots the real rtmap-serve binary on a random port,
// checks /healthz, runs one bit-exact inference through /v1/infer and
// compares it to RunFunctional, drives it briefly with the real
// rtmap-load binary, and SIGTERMs it expecting a clean drain (exit 0).
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the serving binaries")
	}
	bin := buildTools(t, "rtmap-serve", "rtmap-load", "rtmap-trace")

	srv := exec.Command(filepath.Join(bin, "rtmap-serve"),
		"-addr", "127.0.0.1:0", "-devices", "2", "-max-batch", "4", "-batch-window", "1ms",
		"-shard-stages", "2", "-trace-sample", "4")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The server logs "listening on HOST:PORT" once bound.
	var addr string
	sc := bufio.NewScanner(stderr)
	linec := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				linec <- strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
		close(linec)
	}()
	select {
	case a, ok := <-linec:
		if !ok {
			t.Fatal("rtmap-serve exited before binding")
		}
		addr = a
	case <-time.After(30 * time.Second):
		t.Fatal("rtmap-serve did not report its listen address")
	}
	// Drain the rest of stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", resp.StatusCode)
	}

	// One bit-exact inference must equal RunFunctional on the same
	// network and input.
	net := BuildTinyCNN(ModelConfig{ActBits: 4, Sparsity: 0.8, Seed: 1})
	cfg := DefaultCompileConfig()
	cfg.KeepPrograms = true
	comp, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.Inputs(net.InputShape, 1, 99)[0]
	tr, err := RunFunctional(comp, in)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"model": "tinycnn", "bit_exact": true, "inputs": [][]float32{in.Data},
	})
	if err != nil {
		t.Fatal(err)
	}
	post, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/infer: %v", err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("/v1/infer: HTTP %d", post.StatusCode)
	}
	var infer struct {
		Results []struct {
			Logits []int32 `json:"logits"`
		} `json:"results"`
	}
	if err := json.NewDecoder(post.Body).Decode(&infer); err != nil {
		t.Fatal(err)
	}
	if len(infer.Results) != 1 {
		t.Fatalf("%d results", len(infer.Results))
	}
	want := tr.Logits().Data
	if fmt.Sprint(infer.Results[0].Logits) != fmt.Sprint(want) {
		t.Fatalf("served logits %v != RunFunctional %v", infer.Results[0].Logits, want)
	}

	// Drive it with the real load generator for a moment; -inspect prints
	// the pipeline path the sharded server reports, and -trace-sample
	// exercises the client-side trace join against /debug/traces.
	load := exec.Command(filepath.Join(bin, "rtmap-load"),
		"-url", base, "-model", "tinycnn", "-duration", "300ms", "-concurrency", "2",
		"-trace-sample", "2", "-json", "-inspect")
	out, err := load.CombinedOutput()
	if err != nil {
		t.Fatalf("rtmap-load: %v\n%s", err, out)
	}
	for _, want := range []string{`"req_per_s"`, `"p95"`, `"errors": 0`, "pipeline stages via devices",
		`"sampled"`, `"client_wall_ms"`, `"server_phase_ms"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("rtmap-load output missing %s:\n%s", want, out)
		}
	}

	// The trace analyzer must see the sampled spans on the live server and
	// attribute the two pipeline stages.
	tout, err := exec.Command(filepath.Join(bin, "rtmap-trace"),
		"-url", base, "-model", "tinycnn").CombinedOutput()
	if err != nil {
		t.Fatalf("rtmap-trace: %v\n%s", err, tout)
	}
	for _, want := range []string{"model tinycnn", "stage 0:", "stage 1:", "bottleneck"} {
		if !strings.Contains(string(tout), want) {
			t.Errorf("rtmap-trace output missing %q:\n%s", want, tout)
		}
	}

	// Graceful drain: SIGTERM → exit 0.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rtmap-serve did not exit cleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rtmap-serve did not exit after SIGTERM")
	}
}
