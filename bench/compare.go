package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

func readResults(path string) (*results, error) {
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

// spread is the distance between the first and third quartile as a share
// of the median (0 for fewer than two values).
func spread(vs []float64) float64 {
	med := quantile(vs, 0.5)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
}

// compareFiles prints, per (end-to-end metric, workload), both medians,
// the relative change of b against a (positive = worse), the metric's
// bound and a verdict: ok, worse (beyond the bound) or unresolved (either
// side's run-to-run spread is wider than the bound, so the bound cannot
// resolve the difference). It reports whether any pair was worse.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", "" // comparing two commits is the point
	if !reflect.DeepEqual(ea, eb) {
		fmt.Fprintf(out, "WARNING: cross-configuration compare — numbers are not comparable:\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	fmt.Fprintf(out, "%-15s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	anyWorse := false
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			worseBy := 0.0
			if ma != 0 {
				worseBy = (mb - ma) / ma
				if d.Better == higher {
					worseBy = -worseBy
				}
			}
			verdict := "ok"
			switch {
			case worseBy <= d.Bound:
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
			default:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(out, "%-15s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				w.name, d.Name, ma, mb, 100*worseBy, 100*d.Bound, verdict)
		}
	}
	return anyWorse, nil
}
