package main

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"rtmap/internal/loadgen"
)

// The JSON report's keys are an interface: CI's drill gate reads
// requests, rejected, errors, categories and retries by name, its
// open-loop gate offered_per_s and sent_per_s, and bench/BENCH_serve_*
// are this document. Optional sections appear only with what they
// describe (open loop, retries, -trace-sample, -mix).
func TestReportKeys(t *testing.T) {
	keys := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	ok := loadgen.Outcome{Status: 200}
	ms := []time.Duration{time.Millisecond}

	closed := loadReport{Model: "tinycnn", Batch: 1, Categories: map[string]int64{"ok": 1}}
	run := samples{elapsed: time.Second, latencies: ms, attempts: ms, ledger: loadgen.NewLedger(nil)}
	run.ledger.Record(nil, ok, time.Millisecond)
	closed.summarize(run)
	const always = "batch categories elapsed_s errors infer_per_s latency_ms mode model rejected req_per_s requests"
	if got := keys(closed); got != always {
		t.Errorf("closed-loop report keys:\n got %s\nwant %s", got, always)
	}

	mix, err := loadgen.ParseMix("interactive:50:25,bulk:50:0")
	if err != nil {
		t.Fatal(err)
	}
	doc := loadReport{Model: "tinycnn", Batch: 1, OfferedPerS: 100, Categories: map[string]int64{"ok": 1, "http_503": 1}, Retries: 1}
	doc.Trace = map[string]any{"sampled": 0, "joined": 0}
	run = samples{elapsed: time.Second, latencies: ms, attempts: append(ms, ms...), lateness: ms, mix: mix, ledger: loadgen.NewLedger(mix)}
	run.ledger.Record(mix.At(0), ok, time.Millisecond)
	doc.summarize(run)
	const optional = " attempt_latency_ms attempts lateness_ms offered_per_s retries sent_per_s slo trace"
	want := strings.Fields(always + optional)
	sort.Strings(want)
	if got := keys(doc); got != strings.Join(want, " ") {
		t.Errorf("full report keys:\n got %s\nwant %s", got, strings.Join(want, " "))
	}
	if got, want := keys(doc.SLO), "classes goodput goodput_per_s"; got != want {
		t.Errorf("slo keys: got %s, want %s", got, want)
	}
	if got, want := keys(doc.SLO.Classes["interactive"]), "accepted deadline_ms expired failed goodput sent shed"; got != want {
		t.Errorf("slo.classes.* keys: got %s, want %s", got, want)
	}
	if doc.Mode != "open" || doc.SentPerS != 1 || doc.OfferedPerS != 100 {
		t.Errorf("open-loop report says mode %q, offered %g/s, sent %g/s; want open, 100, 1", doc.Mode, doc.OfferedPerS, doc.SentPerS)
	}
}

// Nearest-rank percentiles over tiny samples: every p must stay in
// range and follow the ceil(p·n)-1 definition.
func TestPercentileNearestRank(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	cases := []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   float64 // ms
	}{
		{"empty", nil, 0.99, 0},
		{"empty max", nil, 1.0, 0},
		{"n=1 p0", []time.Duration{ms(5)}, 0, 5},
		{"n=1 p50", []time.Duration{ms(5)}, 0.5, 5},
		{"n=1 max", []time.Duration{ms(5)}, 1.0, 5},
		{"n=2 p50 is the lower rank", []time.Duration{ms(1), ms(9)}, 0.5, 1},
		{"n=2 p95", []time.Duration{ms(1), ms(9)}, 0.95, 9},
		{"n=2 max", []time.Duration{ms(1), ms(9)}, 1.0, 9},
		{"n=2 p0 clamps low", []time.Duration{ms(1), ms(9)}, 0, 1},
		// ceil(0.5·4)-1 = 1: the 2nd of 4 observations.
		{"n=4 p50", []time.Duration{ms(1), ms(2), ms(3), ms(4)}, 0.5, 2},
		// ceil(0.99·100)-1 = 98 — the old int(p·(n-1)) truncation hit 98
		// too, but ceil(0.95·100)-1 = 94 vs the old 94.05→94; the
		// definitions diverge at e.g. p=0.9: ceil(90)-1 = 89 vs 89.1→89.
		{"n=100 p99", ramp(ms, 100), 0.99, 99},
		{"n=100 max in range", ramp(ms, 100), 1.0, 100},
	}
	for _, tc := range cases {
		if got := percentileMS(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentileMS(p=%g) = %g ms, want %g", tc.name, tc.p, got, tc.want)
		}
	}
}

func ramp(ms func(float64) time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = ms(float64(i + 1))
	}
	return out
}
