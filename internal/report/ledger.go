package report

import (
	"fmt"
	"slices"
	"strings"
)

// LedgerRow is one number of the paper beside the value the tree
// reproduces for it.
type LedgerRow struct {
	ID     string  `json:"id"`
	Source string  `json:"source"` // the Table II cell or § it comes from
	Claim  string  `json:"claim"`
	Unit   string  `json:"unit"`
	Paper  float64 `json:"paper"`
	Got    float64 `json:"reproduced"`
	// Count marks an integer count (arrays, operations): it agrees only
	// when exactly equal.
	Count bool `json:"count,omitempty"`
	// Band is the [lo, hi] a test holds Got to; nil where none does.
	Band   []float64 `json:"band,omitempty"`
	Agrees bool      `json:"agrees"`
	// Cause explains a gap; empty when the row agrees.
	Cause string `json:"cause,omitempty"`
}

// Ledger is the reproduction ledger, one row per paper number.
type Ledger []LedgerRow

// decimals is the precision a unit renders with everywhere.
func decimals(unit string) int {
	switch unit {
	case "µJ", "ms", "×":
		return 2
	case "%":
		return 1
	}
	return 0
}

// Markdown renders the ledger as a markdown table followed by the
// numbered list of gap causes the table's verdicts refer to.
func (l Ledger) Markdown() string {
	var b strings.Builder
	b.WriteString("| Row | Source | Claim | Paper | Reproduced | Δ | Test band | Verdict |\n")
	b.WriteString("| --- | --- | --- | --- | --- | --- | --- | --- |\n")
	var causes []string
	for _, r := range l {
		num := func(v float64) string {
			return fmt.Sprintf("%.*f %s", decimals(r.Unit), v, r.Unit)
		}
		band := "—"
		if r.Band != nil {
			band = fmt.Sprintf("[%g, %g]", r.Band[0], r.Band[1])
		}
		verdict := "agrees"
		if !r.Agrees {
			n := 1 + slices.Index(causes, r.Cause)
			if n == 0 {
				causes = append(causes, r.Cause)
				n = len(causes)
			}
			verdict = fmt.Sprintf("gap (%d)", n)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %+.0f %% | %s | %s |\n",
			r.ID, r.Source, r.Claim, num(r.Paper), num(r.Got), 100*(r.Got/r.Paper-1), band, verdict)
	}
	if len(causes) > 0 {
		b.WriteString("\nCauses of the gaps:\n\n")
		for i, c := range causes {
			fmt.Fprintf(&b, "%d. %s\n", i+1, c)
		}
	}
	return b.String()
}
