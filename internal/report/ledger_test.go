package report

import "testing"

// TestLedgerMarkdown pins the ledger rendering: each unit's precision,
// the signed deviation, an open band as a dash, and gap verdicts that
// number their causes in order of first use, one entry per distinct
// cause.
func TestLedgerMarkdown(t *testing.T) {
	l := Ledger{
		{ID: "a", Source: "Table II", Claim: "energy", Unit: "µJ", Paper: 10, Got: 11, Band: []float64{5, 20}, Agrees: true},
		{ID: "b", Source: "§V-C", Claim: "share", Unit: "%", Paper: 3, Got: 12, Cause: "Unlocated. X."},
		{ID: "c", Source: "Table II", Claim: "arrays", Unit: "arrays", Paper: 41, Got: 36, Count: true, Cause: "Unlocated. Y."},
		{ID: "d", Source: "§V-C", Claim: "share again", Unit: "%", Paper: 3, Got: 6, Cause: "Unlocated. X."},
	}
	want := "| Row | Source | Claim | Paper | Reproduced | Δ | Test band | Verdict |\n" +
		"| --- | --- | --- | --- | --- | --- | --- | --- |\n" +
		"| `a` | Table II | energy | 10.00 µJ | 11.00 µJ | +10 % | [5, 20] | agrees |\n" +
		"| `b` | §V-C | share | 3.0 % | 12.0 % | +300 % | — | gap (1) |\n" +
		"| `c` | Table II | arrays | 41 arrays | 36 arrays | -12 % | — | gap (2) |\n" +
		"| `d` | §V-C | share again | 3.0 % | 6.0 % | +100 % | — | gap (1) |\n" +
		"\nCauses of the gaps:\n\n" +
		"1. Unlocated. X.\n" +
		"2. Unlocated. Y.\n"
	if got := l.Markdown(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}
