package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"rtmap/internal/workload"
)

// updateGolden rewrites testdata/*.golden from what the test observes.
// The committed expectations were written this way at the commit before
// the metrics registry (PR 17), from the hand-printed exposition; rewrite
// them only for a deliberate change to an exported family.
var updateGolden = flag.Bool("update", false, "rewrite the golden files from this run")

// timingSeries are the samples whose value depends on how fast the
// test ran; the golden holds them to their series name only.
var timingSeries = regexp.MustCompile(`_seconds_(sum|bucket)|_queue_delay_est_seconds`)

// wireLines reduces a scrape to what the wire-compatibility golden
// compares: every line but # HELP (new with the registry) and the
// runtime families (likewise), timing-valued samples stripped to their
// series, sorted because the format promises no order.
func wireLines(body string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.Contains(line, "rtmap_go_") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); !strings.HasPrefix(line, "#") && timingSeries.MatchString(line[:i]) {
			line = line[:i]
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsWireCompat scripts one request into each terminal outcome —
// accepted, shed, failed, expired — and holds the scrape that follows to
// the series the hand-printed exposition produced for the same script:
// same families, types, label spellings and number formats.
func TestMetricsWireCompat(t *testing.T) {
	s, ts := testServer(t, Options{Devices: 1, NoCache: true}) // a shared cache would turn the certificate miss into a hit on a rerun
	sh, _ := ZooShape("tinycnn")
	body, err := json.Marshal(&InferRequest{Model: "tinycnn", Inputs: workload.InputData(sh, 1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	// post reports the status code, 0 for a transport error (one leg runs
	// off the test goroutine, so nothing here may call t.Fatal).
	post := func(model, class, deadlineMS string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer",
			bytes.NewReader(bytes.Replace(body, []byte("tinycnn"), []byte(model), 1)))
		if err != nil {
			t.Error(err)
			return 0
		}
		req.Header.Set(ClassHeader, class)
		if deadlineMS != "" {
			req.Header.Set(DeadlineHeader, deadlineMS)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("tinycnn", "standard", "60000"); code != http.StatusOK {
		t.Fatalf("accepted leg: HTTP %d", code)
	}
	// A one-nanosecond budget is spent before admission looks at it.
	if code := post("tinycnn", "interactive", "0.000001"); code != http.StatusTooManyRequests {
		t.Fatalf("shed leg: HTTP %d, want 429", code)
	}
	if code := post("no-such-model", "bulk", ""); code != http.StatusNotFound {
		t.Fatalf("failed leg: HTTP %d, want 404", code)
	}
	// Expired: admitted on an optimistic estimate, then stuck behind a
	// held device until its deadline has passed.
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := holdFleet(t, s.fleet, e, 1)
	expired := make(chan int, 1)
	go func() { expired <- post("tinycnn", "standard", "150") }()
	waitFor(t, "the doomed request to queue behind the blocker", func() bool { return s.fleet.Pending() == 2 })
	time.Sleep(200 * time.Millisecond)
	release()
	if code := <-expired; code != http.StatusServiceUnavailable {
		t.Fatalf("expired leg: HTTP %d, want 503", code)
	}

	got := wireLines(getMetrics(t, ts.URL))
	const golden = "testdata/metrics_wire.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("scrape differs from the exposition of the commit before the registry\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	var b strings.Builder
	side := func(prefix, a, other string) {
		have := map[string]bool{}
		for _, l := range strings.Split(other, "\n") {
			have[l] = true
		}
		for _, l := range strings.Split(a, "\n") {
			if !have[l] {
				b.WriteString(prefix + l + "\n")
			}
		}
	}
	side("- ", want, got)
	side("+ ", got, want)
	return b.String()
}
