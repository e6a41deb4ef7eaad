package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdicts of one workload × end-to-end metric pairing.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rep, nil
}

func compareFiles(basePath, candPath string) int {
	base, err := loadReport(basePath)
	if err == nil {
		var cand *report
		if cand, err = loadReport(candPath); err == nil {
			return compareReports(base, cand)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// judge compares one metric of a candidate run against the baseline run.
// worse is the share of the baseline by which the candidate is worse
// (negative when it is better). A difference beyond the bound counts only
// when the noise seen inside either run is within the bound; otherwise the
// pairing is unresolved, not a regression and not a gain.
func judge(m metricDef, bound, a, b, noise float64) (verdict string, worse float64) {
	if a == b {
		return unchanged, 0
	}
	if a == 0 {
		// Only failed_frac has a zero baseline: any failure is a regression.
		return regressed, math.Inf(1)
	}
	worse = (b - a) / math.Abs(a)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Abs(worse) <= bound:
		return unchanged, worse
	case noise > bound:
		return unresolved, worse
	case worse > 0:
		return regressed, worse
	}
	return improved, worse
}

// compareReports prints, per workload × end-to-end metric, both values,
// the candidate as a ratio of the baseline, and the verdict against the
// benchmark's bound. It returns 1 if any pairing regressed, else 0.
func compareReports(base, cand *report) int {
	byName := make(map[string]*result, len(cand.Workloads))
	for _, r := range cand.Workloads {
		byName[r.Workload] = r
	}
	sameSeed := base.Seed == cand.Seed
	fmt.Printf("\nbaseline %s (seed %d) vs candidate %s (seed %d); ratio = candidate / baseline\n",
		base.Env.Commit, base.Seed, cand.Env.Commit, cand.Seed)
	fmt.Printf("%-10s %-28s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "ratio", "bound", "verdict")
	code := 0
	for _, a := range base.Workloads {
		b, ok := byName[a.Workload]
		if !ok {
			continue
		}
		for _, m := range metrics {
			va, okA := a.Metrics[m.Name]
			vb, okB := b.Metrics[m.Name]
			if !m.EndToEnd || !okA || !okB {
				continue
			}
			bound := m.Bound
			if sameSeed && m.ExactPerSeed {
				bound = 0
			}
			verdict, _ := judge(m, bound, va, vb, math.Max(a.Spread[m.Name], b.Spread[m.Name]))
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Printf("%-10s %-28s %14.6g %14.6g %8s %6g%%  %s\n", a.Workload, m.Name, va, vb, ratio, bound*100, verdict)
			if verdict == regressed {
				code = 1
			}
		}
	}
	return code
}
