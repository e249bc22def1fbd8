package main

import (
	"fmt"
	"io"
	"slices"
)

// compareDocs prints one row per workload and end-to-end metric of two
// full-run documents: both medians, the ratio new/base, the bound and a
// verdict. "worse" means the new median is worse than the base by more
// than the bound; where the run-to-run spread of either side is wider
// than the bound the row is "unresolved" instead, unless every new run
// reads better than every base run. It reports whether any row is worse.
func compareDocs(w io.Writer, basePath, newPath string) (worse bool, err error) {
	var base, cur resultDoc
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return false, err
	}
	switch {
	case base.HarnessVersion != cur.HarnessVersion:
		return false, fmt.Errorf("harness versions differ: %d vs %d", base.HarnessVersion, cur.HarnessVersion)
	case base.Seed != cur.Seed || base.Repeat != cur.Repeat:
		return false, fmt.Errorf("seeds differ: %d x%d vs %d x%d", base.Seed, base.Repeat, cur.Seed, cur.Repeat)
	case base.Provenance.GOMAXPROCS != cur.Provenance.GOMAXPROCS:
		return false, fmt.Errorf("GOMAXPROCS differs: %d vs %d", base.Provenance.GOMAXPROCS, cur.Provenance.GOMAXPROCS)
	case base.Seconds != cur.Seconds:
		return false, fmt.Errorf("run lengths differ: %v s vs %v s", base.Seconds, cur.Seconds)
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %16s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, wd := range workloadDefs {
		b, c := base.Workloads[wd.Name], cur.Workloads[wd.Name]
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from one document", wd.Name)
		}
		for _, d := range endToEnd {
			bs, cs := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			verdict := verdictOf(d, bs, cs)
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %9.4f of base %6.2f  %s\n",
				wd.Name, d.Name, bs.Median, cs.Median, cs.Median/bs.Median, d.Bound, verdict)
		}
		// The modeled clock and the exact counts must repeat bit for bit.
		for _, name := range []string{"model_latency_ms", "model_energy_uj", "core.addsub_ops", "ap.plan_ops"} {
			if bv, cv := b.PerLayer[name].Value, c.PerLayer[name].Value; bv != cv {
				worse = true
				fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %16s %6s  worse (must be identical)\n", wd.Name, name, bv, cv, "", "exact")
			}
		}
	}
	return worse, nil
}

// verdictOf judges one metric of one workload.
func verdictOf(d metricDef, base, cur series) string {
	// loss is by how much of the base the new median is worse.
	loss := (cur.Median - base.Median) / base.Median
	better := func(a, b float64) bool { return a < b }
	if d.Better == "higher" {
		loss = -loss
		better = func(a, b float64) bool { return a > b }
	}
	if max(base.Spread, cur.Spread) > d.Bound {
		allBetter := len(cur.Values) > 0 && len(base.Values) > 0
		for _, v := range cur.Values {
			allBetter = allBetter && !slices.ContainsFunc(base.Values, func(b float64) bool { return !better(v, b) })
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if loss > d.Bound {
		return "worse"
	}
	return "ok"
}
