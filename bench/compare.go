package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges one end-to-end metric of run B against baseline A.
// worse is how far B's median moved in the bad direction, as a share of
// A's. When either run's own repetitions spread wider than the bound, the
// comparison cannot tell a regression from noise: unresolved, never "ok".
func verdict(d metricDef, a, b summary) (v string, worse float64) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case max(a.Spread, b.Spread) > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	default:
		return "ok", worse
	}
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload, every end-to-end metric of both runs
// with the ratio B/A and its base, the bound and the verdict, then the
// ladder's exact counts. It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-22s %14s %14s %18s %7s  %s\n", wl.name, "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(sa.Raw) == 0 || len(sb.Raw) == 0 {
				continue
			}
			v, worse := verdict(d, sa, sb)
			regressed = regressed || v == "regressed"
			ratio := 0.0
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f %8.3f of %-8.4g %6.1f%%  %s (%+.1f%% worse; spreads %.1f%% / %.1f%%)\n",
				d.Name, sa.Median, sb.Median, ratio, sa.Median, d.Bound*100, v, worse*100, sa.Spread*100, sb.Spread*100)
		}
		// Expected 0 on every workload: any failure is a regression.
		v := "ok"
		if wb.FailShare > wa.FailShare {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "  %-22s %14.6f %14.6f %36s\n", "fail_share", wa.FailShare, wb.FailShare, v)
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, name := range ladderExact {
			v := "identical"
			if wa.PerLayer[name] != wb.PerLayer[name] {
				v = "DIFFERENT"
			}
			fmt.Fprintf(w, "  %-32s %18.12g %18.12g  %s\n", name, wa.PerLayer[name], wb.PerLayer[name], v)
		}
	}
	return regressed, nil
}
