package loadgen

import (
	"context"
	"errors"
	"math/rand/v2"
	"syscall"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	for _, spec := range []string{
		"interactive:50",          // two fields
		"interactive:50:25:extra", // four
		"interactive:0:25",        // zero weight
		"interactive:-1:25",       // negative weight
		"interactive:x:25",        // weight not a number
		"interactive:50:-1",       // negative deadline
		"interactive:50:NaN",      // not a deadline
		"interactive:50:25,",      // empty entry
	} {
		if m, err := ParseMix(spec); err == nil {
			t.Errorf("ParseMix(%q) = %+v, want an error", spec, m)
		}
	}
	if m, err := ParseMix(""); m != nil || err != nil {
		t.Errorf(`ParseMix("") = %v, %v, want no mix and no error`, m, err)
	}

	m, err := ParseMix("interactive:50:25, standard:30:100 ,bulk:20:0")
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{{"interactive", 50, 25}, {"standard", 30, 100}, {"bulk", 20, 0}}
	if got := m.Classes; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Classes() = %+v, want %+v", got, want)
	}
	// Whole shares land exactly, in any window of one schedule length.
	for _, from := range []int{0, 100, 1234500} {
		counts := map[string]int{}
		for i := from; i < from+100; i++ {
			counts[m.At(i).Name]++
		}
		if counts["interactive"] != 50 || counts["standard"] != 30 || counts["bulk"] != 20 {
			t.Errorf("calls %d..%d split %v, want 50:30:20 exactly", from, from+99, counts)
		}
	}
}

func TestNilMixIsClassless(t *testing.T) {
	var m *Mix
	if c := m.At(7); c != nil {
		t.Errorf("nil mix At(7) = %+v, want no class", c)
	}
	if l := NewLedger(m); len(l.Classes) != 0 {
		t.Errorf("ledger of a nil mix opened %d class tallies", len(l.Classes))
	}
}

func TestRecordRule(t *testing.T) {
	tight := &Class{Name: "interactive", Weight: 1, DeadlineMS: 10}
	cases := []struct {
		name string
		c    *Class
		o    Outcome
		wall time.Duration
		want Tally
	}{
		{"200 inside the deadline", tight, Outcome{Status: 200}, 10 * time.Millisecond, Tally{Sent: 1, Accepted: 1, Goodput: 1}},
		{"200 past the deadline", tight, Outcome{Status: 200}, 11 * time.Millisecond, Tally{Sent: 1, Accepted: 1}},
		{"200 with no deadline", &Class{Name: "bulk"}, Outcome{Status: 200}, time.Hour, Tally{Sent: 1, Accepted: 1, Goodput: 1}},
		{"200 with no class", nil, Outcome{Status: 200}, time.Hour, Tally{Sent: 1, Accepted: 1, Goodput: 1}},
		{"429", tight, Outcome{Status: 429, Kind: "shed"}, 0, Tally{Sent: 1, Shed: 1}},
		{"503 expired", tight, Outcome{Status: 503, Kind: "expired"}, 0, Tally{Sent: 1, Expired: 1}},
		{"503 unavailable is a failure, not a shed", tight, Outcome{Status: 503, Kind: "unavailable"}, 0, Tally{Sent: 1, Failed: 1}},
		{"500", tight, Outcome{Status: 500}, 0, Tally{Sent: 1, Failed: 1}},
		{"refused", tight, Outcome{Err: syscall.ECONNREFUSED}, 0, Tally{Sent: 1, Failed: 1}},
	}
	for _, tc := range cases {
		l := NewLedger(NewMix([]Class{*tight, {Name: "bulk", Weight: 1}}, 2))
		l.Record(tc.c, tc.o, tc.wall)
		if l.Total != tc.want {
			t.Errorf("%s: total %+v, want %+v", tc.name, l.Total, tc.want)
		}
		if tc.c != nil && *l.Classes[tc.c.Name] != tc.want {
			t.Errorf("%s: class tally %+v, want %+v", tc.name, *l.Classes[tc.c.Name], tc.want)
		}
	}
}

// The client half of the request-conservation law: whatever is recorded,
// every request lands in exactly one column, per class and in total, and
// the classes and the categories each add up to the total.
func TestLedgerConserves(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	mix := NewMix([]Class{{"interactive", 5, 25}, {"standard", 3, 100}, {"bulk", 2, 0}}, 10)
	outcomes := []Outcome{
		{Status: 200}, {Status: 200}, {Status: 200},
		{Status: 429, Kind: "shed"},
		{Status: 503, Kind: "expired"}, {Status: 503, Kind: "unavailable"}, {Status: 503},
		{Status: 400, Kind: "bad_request"}, {Status: 500, Kind: "internal"}, {Status: 302},
		{Err: syscall.ECONNREFUSED}, {Err: syscall.ECONNRESET},
		{Err: context.DeadlineExceeded}, {Err: context.Canceled}, {Err: errors.New("EOF")},
		{},
	}
	l := NewLedger(mix)
	const records = 5000
	for i := 0; i < records; i++ {
		l.Record(mix.At(rng.IntN(1000)), outcomes[rng.IntN(len(outcomes))], time.Duration(rng.IntN(200))*time.Millisecond)
	}

	var classes Tally
	for name, tl := range map[string]*Tally{"total": &l.Total, "interactive": l.Classes["interactive"], "standard": l.Classes["standard"], "bulk": l.Classes["bulk"]} {
		if tl.Sent == 0 || tl.Sent != tl.Accepted+tl.Shed+tl.Expired+tl.Failed {
			t.Errorf("%s: sent %d != accepted %d + shed %d + expired %d + failed %d", name, tl.Sent, tl.Accepted, tl.Shed, tl.Expired, tl.Failed)
		}
		if tl.Goodput > tl.Accepted {
			t.Errorf("%s: goodput %d above accepted %d", name, tl.Goodput, tl.Accepted)
		}
		if name != "total" {
			classes.Sent += tl.Sent
			classes.Accepted += tl.Accepted
			classes.Shed += tl.Shed
			classes.Expired += tl.Expired
			classes.Failed += tl.Failed
			classes.Goodput += tl.Goodput
		}
	}
	if classes != l.Total || l.Total.Sent != records || len(l.Classes) != 3 {
		t.Errorf("Σ classes %+v != total %+v over %d records in %d classes", classes, l.Total, records, len(l.Classes))
	}
	var categories int64
	for _, n := range l.Categories {
		categories += n
	}
	if categories != l.Total.Sent {
		t.Errorf("categories %v add up to %d, total sent %d", l.Categories, categories, l.Total.Sent)
	}
	if l.Categories["ok"] != l.Total.Accepted || l.Categories["http_429"] != l.Total.Shed {
		t.Errorf("categories %v disagree with the total %+v", l.Categories, l.Total)
	}
}
