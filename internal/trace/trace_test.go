package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRingWrapOldestFirst(t *testing.T) {
	tr := New(4, 0, 0)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: "exec", Stage: i, Device: -1, Replica: -1})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	for i, sp := range got {
		if want := 6 + i; sp.Stage != want {
			t.Errorf("snapshot[%d].Stage = %d, want %d (oldest-first)", i, sp.Stage, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	tr := New(8, 0, 0)
	tr.Record(Span{Name: "http"})
	tr.Record(Span{Name: "wait"})
	got := tr.Snapshot()
	if len(got) != 2 || got[0].Name != "http" || got[1].Name != "wait" {
		t.Fatalf("snapshot = %+v, want [http wait]", got)
	}
}

// Event is the request-level span: no device, replica or stage; nothing
// recorded for an untraced request or on a nil tracer; no allocation
// either way (it sits on the /v1/infer path of both tiers).
func TestEvent(t *testing.T) {
	tr := New(8, 0, 0)
	start := time.Unix(3, 14)
	tr.Event("", "http", "tinycnn", start, time.Millisecond, "")
	(*Tracer)(nil).Event("id", "http", "tinycnn", start, time.Millisecond, "")
	if n := tr.Total(); n != 0 {
		t.Fatalf("%d spans recorded for an untraced request, want 0", n)
	}
	tr.Event("id", "shed", "tinycnn", start, time.Millisecond, "why")
	want := Span{TraceID: "id", Name: "shed", Model: "tinycnn", Device: -1, Replica: -1, Stage: -1,
		Start: start.UnixNano(), Dur: int64(time.Millisecond), Detail: "why"}
	if got := tr.Snapshot(); len(got) != 1 || got[0] != want {
		t.Fatalf("recorded %+v, want [%+v]", got, want)
	}
	for _, id := range []string{"", "id"} {
		if n := testing.AllocsPerRun(100, func() { tr.Event(id, "http", "tinycnn", start, time.Millisecond, "") }); n != 0 {
			t.Errorf("Event(%q) allocates %v times per call, want 0", id, n)
		}
	}
}

func TestSampling(t *testing.T) {
	tr := New(0, 3, 2)
	var reqs, layers int
	for i := 0; i < 12; i++ {
		if tr.SampleRequest() {
			reqs++
		}
	}
	if reqs != 4 {
		t.Errorf("SampleRequest hit %d of 12 with 1-in-3, want 4", reqs)
	}
	for i := 0; i < 10; i++ {
		if tr.SampleLayers() {
			layers++
		}
	}
	if layers != 5 {
		t.Errorf("SampleLayers hit %d of 10 with 1-in-2, want 5", layers)
	}

	off := New(0, 0, 0)
	if off.SampleRequest() || off.SampleLayers() {
		t.Error("sampling disabled (0) must never sample")
	}
}

// Intake is the trace identity rule of both tiers: a header of 1 to
// MaxIDLen bytes is the ID and costs no sample; an empty or oversized one
// falls to sampling, which mints a fresh ID or leaves the request untraced.
func TestIntake(t *testing.T) {
	longest, oversized := strings.Repeat("x", MaxIDLen), strings.Repeat("x", MaxIDLen+1)
	off := New(0, 0, 0)
	for header, want := range map[string]string{"abc": "abc", longest: longest, "": "", oversized: ""} {
		if got := off.Intake(header); got != want {
			t.Errorf("header-only tracer: Intake(%d bytes) = %q, want %q", len(header), got, want)
		}
	}
	every2 := New(0, 2, 0)
	if got := every2.Intake("abc"); got != "abc" {
		t.Errorf("Intake(abc) = %q", got)
	}
	if got := every2.Intake(""); got != "" {
		t.Errorf("first headerless request of a 1-in-2 sample traced as %q", got)
	}
	if got := every2.Intake(oversized); len(got) != 16 {
		t.Errorf("second headerless request of a 1-in-2 sample got ID %q, want a fresh 16-hex one", got)
	}
}

func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := New(0, 0, 0)
	tr.SetSink(&buf)
	want := []Span{
		{TraceID: "abc", Name: "http", Model: "tinycnn", Device: -1, Replica: -1, Stage: -1, Dur: 100},
		{TraceID: "abc", Name: "stage", Device: 1, Replica: 0, Stage: 2, Batch: 8, Dur: 50, Detail: "x"},
	}
	for _, sp := range want {
		tr.Record(sp)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Span
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, sp)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d round-trip = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("NewID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestFlushWithoutSink(t *testing.T) {
	tr := New(0, 0, 0)
	tr.Record(Span{Name: "exec"})
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush without sink: %v", err)
	}
}
