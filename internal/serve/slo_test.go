package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/sim"
	"rtmap/internal/workload"
)

// TestFailoverMixedSLO is the race between the fault layer and the SLO
// layer: a batch with mixed deadline classes queued on a device that
// dies. Live items must requeue onto the surviving replica and stay
// bit-exact, keeping their trace identity across the detour; the item
// whose deadline passed on the dead device's queue must be cancelled
// with errExpired — dropped, never re-executed. Run under -race in CI.
func TestFailoverMixedSLO(t *testing.T) {
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
	deadDev := e.placed().replicas[0].devs[0]
	if err := s.FailDevice(deadDev); err != nil {
		t.Fatal(err)
	}

	// Three classes, three fates: an interactive item with headroom and a
	// bulk item with no deadline survive the failover; the standard item's
	// deadline already passed while "queued" on the dead device.
	sh, _ := ZooShape("tinycnn")
	ins := workload.Inputs(sh, 3, 23)
	now := time.Now()
	items := []*item{
		{in: ins[0], enq: now, res: make(chan itemResult, 1),
			class: dispatch.ClassInteractive, deadline: now.Add(time.Hour),
			trace: "trace-live"},
		{in: ins[1], enq: now, res: make(chan itemResult, 1),
			class: dispatch.ClassStandard, deadline: now.Add(-time.Millisecond),
			trace: "trace-dead"},
		{in: ins[2], enq: now, res: make(chan itemResult, 1),
			class: dispatch.ClassBulk},
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
		if i == 1 {
			if res.err == nil {
				t.Fatal("expired item re-executed across failover; want errExpired")
			}
			if res.err != errExpired {
				t.Fatalf("expired item failed with %v, want errExpired", res.err)
			}
			continue
		}
		if res.err != nil {
			t.Fatalf("live item %d failed across failover: %v", i, res.err)
		}
		if res.info.Requeues != 1 {
			t.Errorf("live item %d: %d requeues recorded, want 1", i, res.info.Requeues)
		}
		if res.info.Device == deadDev {
			t.Errorf("live item %d executed on the dead device %d", i, deadDev)
		}
		tr, err := sim.ForwardAP(comp, it.in)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Logits().Data
		for j := range want {
			if res.logits[j] != want[j] {
				t.Fatalf("live item %d logit %d: failover served %d, RunFunctional %d",
					i, j, res.logits[j], want[j])
			}
		}
	}

	// Trace identity survives the detour: the surviving item's requeue
	// span and the cancelled item's expired span each carry the trace ID
	// the request arrived with.
	spans := map[string][]string{}
	for _, sp := range s.Tracer().Snapshot() {
		spans[sp.TraceID] = append(spans[sp.TraceID], sp.Name)
	}
	if !containsString(spans["trace-live"], "requeue") {
		t.Errorf("surviving item's trace %v lost its requeue span", spans["trace-live"])
	}
	if !containsString(spans["trace-live"], "exec") {
		t.Errorf("surviving item's trace %v never executed", spans["trace-live"])
	}
	if !containsString(spans["trace-dead"], "expired") {
		t.Errorf("cancelled item's trace %v has no expired span", spans["trace-dead"])
	}
	if containsString(spans["trace-dead"], "exec") {
		t.Errorf("cancelled item's trace %v shows execution after expiry", spans["trace-dead"])
	}
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// FuzzInferAdmission is the robustness gate for the SLO admission
// surface: arbitrary class/deadline header combinations must never
// panic the server and must always classify — HTTP 200, 400, 429, or
// 503, with every non-200 carrying a structured error body. CI runs
// the seed corpus as a deterministic smoke test (go test -run
// FuzzInferAdmission); open-ended fuzzing stays a local tool
// (go test -fuzz FuzzInferAdmission).
func FuzzInferAdmission(f *testing.F) {
	s := New(Options{Devices: 1, MaxBatch: 2, Window: time.Millisecond,
		MaxQueueDelay: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	sh, _ := ZooShape("tinycnn")
	in := workload.InputData(sh, 1, 7)
	body, err := json.Marshal(&InferRequest{Model: "tinycnn", Inputs: in})
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: each pair is a distinct admission class — valid combos,
	// unknown classes, malformed/extreme/degenerate deadlines.
	for _, seed := range [][2]string{
		{"", ""},                    // pre-SLO request shape
		{"interactive", "50"},       // canonical tight-deadline combo
		{"standard", "200"},         //
		{"bulk", "0"},               // explicit "no deadline"
		{"batch", "10"},             // unknown class name
		{"INTERACTIVE", "50"},       // case sensitivity
		{"interactive", "-5"},       // negative budget
		{"interactive", "NaN"},      // non-finite parses as float
		{"bulk", "Inf"},             //
		{"", "abc"},                 // unparsable deadline
		{"interactive", "0.0001"},   // budget below any feasible service time
		{"bulk", "1e-300"},          // denormal budget
		{"standard", "1e300"},       // overflow: must clamp, not wrap negative
		{"standard", "86400000000"}, // far future
		{"interactive", "1.5e2"},    // scientific notation, valid
		{"bulk", " 50"},             // leading whitespace
	} {
		f.Add(seed[0], seed[1])
	}

	f.Fuzz(func(t *testing.T, class, deadline string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if class != "" {
			req.Header.Set(ClassHeader, class)
		}
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("class=%q deadline=%q: HTTP %d, want 200/400/429/503", class, deadline, resp.StatusCode)
		}
		var eresp ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
			t.Fatalf("class=%q deadline=%q: HTTP %d with unparsable error body: %v",
				class, deadline, resp.StatusCode, err)
		}
		if eresp.Error == "" || eresp.Kind == "" {
			t.Fatalf("class=%q deadline=%q: HTTP %d error body lacks classification: %+v",
				class, deadline, resp.StatusCode, eresp)
		}
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatalf("class=%q deadline=%q: 429 without Retry-After", class, deadline)
		}
	})
}

// TestSLOAccountingAudit checks the conservation law of the SLO ledger
// against an independent client-side tally: every submitted request
// lands in exactly one of accepted/shed/expired/failed, the per-class
// /metrics counters match the client's own counts exactly, and the
// derived submitted total equals their sum. Any double- or
// missed-count shows up as an off-by-one here.
func TestSLOAccountingAudit(t *testing.T) {
	// One slow device and a microscopic queue-delay bound: a concurrent
	// burst must split between accepted, shed, and expired outcomes.
	_, ts := testServer(t, Options{Devices: 1, MaxBatch: 2, Window: time.Millisecond,
		MaxQueueDelay: 3 * time.Millisecond})
	sh, _ := ZooShape("tinycnn")
	in := workload.InputData(sh, 1, 9)
	body, err := json.Marshal(&InferRequest{Model: "tinycnn", Inputs: in})
	if err != nil {
		t.Fatal(err)
	}

	type probe struct {
		class    string // header value; "" = standard by default
		deadline string // header value; "" = none
	}
	// Warm the model first (counts toward standard/accepted like any
	// other request — the ledger has no warm-up exemption).
	probes := []probe{{"", ""}}
	for i := 0; i < 20; i++ {
		probes = append(probes,
			probe{"interactive", "1"}, // nearly-impossible budget: shed or expired
			probe{"standard", ""},     // no deadline: accepted unless shed by load
			probe{"bulk", "30000"},    // generous budget
		)
	}

	// want[class][outcome] is the client-side ledger.
	want := map[string]map[string]int64{}
	tally := func(class, outcome string) {
		if class == "" {
			class = "standard"
		}
		if want[class] == nil {
			want[class] = map[string]int64{}
		}
		want[class][outcome]++
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	run := func(p probe) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if p.class != "" {
			req.Header.Set(ClassHeader, p.class)
		}
		if p.deadline != "" {
			req.Header.Set(DeadlineHeader, p.deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		outcome := "failed"
		switch resp.StatusCode {
		case http.StatusOK:
			outcome = "accepted"
		case http.StatusTooManyRequests:
			outcome = "shed"
		case http.StatusServiceUnavailable:
			var eresp ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
				t.Errorf("503 with unparsable body: %v", err)
				return
			}
			if eresp.Kind == "expired" {
				outcome = "expired"
			}
		}
		mu.Lock()
		tally(p.class, outcome)
		mu.Unlock()
	}
	run(probes[0]) // warm-up completes before the burst
	for _, p := range probes[1:] {
		wg.Add(1)
		go func(p probe) {
			defer wg.Done()
			run(p)
		}(p)
	}
	wg.Wait()

	// Scrape the ledger. Every handler observes its outcome before
	// writing the response, so once all responses are read the counters
	// are settled.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	resp.Body.Close()

	got := map[string]map[string]int64{}
	submitted := map[string]int64{}
	reqRE := regexp.MustCompile(`rtmap_slo_requests_total\{class="([^"]+)",outcome="([^"]+)"\} (\d+)`)
	subRE := regexp.MustCompile(`rtmap_slo_submitted_total\{class="([^"]+)"\} (\d+)`)
	for _, m := range reqRE.FindAllStringSubmatch(metrics, -1) {
		v, _ := strconv.ParseInt(m[3], 10, 64)
		if got[m[1]] == nil {
			got[m[1]] = map[string]int64{}
		}
		got[m[1]][m[2]] = v
	}
	for _, m := range subRE.FindAllStringSubmatch(metrics, -1) {
		submitted[m[1]], _ = strconv.ParseInt(m[2], 10, 64)
	}

	var clientTotal, serverSubmitted int64
	for _, class := range []string{"interactive", "standard", "bulk"} {
		var classSum int64
		for _, outcome := range []string{"accepted", "shed", "expired", "failed"} {
			w := want[class][outcome]
			g := got[class][outcome]
			if g != w {
				t.Errorf("%s/%s: server counted %d, client counted %d", class, outcome, g, w)
			}
			classSum += g
			clientTotal += w
		}
		if submitted[class] != classSum {
			t.Errorf("%s: submitted %d != outcome sum %d (conservation violated)",
				class, submitted[class], classSum)
		}
		serverSubmitted += submitted[class]
	}
	if serverSubmitted != clientTotal {
		t.Errorf("server submitted %d requests total, client sent %d", serverSubmitted, clientTotal)
	}
	if clientTotal != int64(len(probes)) {
		t.Fatalf("client ledger recorded %d probes, sent %d (test bug)", clientTotal, len(probes))
	}
	// The audit needs contention to mean anything: the burst must not
	// have collapsed into a single outcome.
	outcomes := 0
	for _, class := range got {
		for _, n := range class {
			if n > 0 {
				outcomes++
			}
		}
	}
	if outcomes < 2 {
		t.Logf("metrics:\n%s", metrics)
		t.Errorf("burst produced %d distinct outcome cells; want >= 2 for a meaningful audit", outcomes)
	}
}
