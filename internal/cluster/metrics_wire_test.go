package cluster

import (
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/*.golden from what the test observes.
// The committed expectation was written this way at the commit before the
// metrics registry (PR 17), from the hand-printed exposition; rewrite it
// only for a deliberate change to an exported family.
var updateGolden = flag.Bool("update", false, "rewrite the golden files from this run")

// timingSeries are the samples whose value depends on how fast the
// test ran; the golden holds them to their series name only.
var timingSeries = regexp.MustCompile(`_seconds_(sum|bucket)`)

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

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestRouterMetricsWireCompat scripts one relayed, one retried and one
// router-shed request and holds the scrape that follows to the series
// the hand-printed exposition produced for the same script: same
// families, types, label spellings and number formats.
func TestRouterMetricsWireCompat(t *testing.T) {
	alive := newStub(t, ok200(`{"model":"m","results":[]}`))
	deadTS := httptest.NewServer(http.NotFoundHandler())
	dead := deadTS.URL
	deadTS.Close() // nothing listens: dials get ECONNREFUSED
	r, ts := newTestRouter(t, Options{}, dead, alive.ts.URL)

	if resp, raw := postInfer(t, ts.URL, keyWithPrimary(t, r.Ring(), alive.ts.URL), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("relayed leg: HTTP %d: %s", resp.StatusCode, raw)
	}
	if resp, raw := postInfer(t, ts.URL, keyWithPrimary(t, r.Ring(), dead), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("retried leg: HTTP %d: %s", resp.StatusCode, raw)
	}
	for _, n := range []string{dead, alive.ts.URL} {
		for i := 0; i < 3; i++ {
			r.health.observe(n, false, errors.New("probe failed"), true)
		}
	}
	if resp, raw := postInfer(t, ts.URL, "m", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed leg: HTTP %d: %s", resp.StatusCode, raw)
	}

	// The nodes listen on ports the kernel picked; name them.
	got := wireLines(strings.NewReplacer(dead, "http://dead", alive.ts.URL, "http://alive").Replace(scrape(t, ts.URL)))
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
		t.Errorf("scrape differs from the exposition of the commit before the registry:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
