package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareFiles prints, for every workload and end-to-end metric of two -out
// files, both values, the range of the better half of both sides' rounds
// (best round to median round), by how much B is worse than A and the bound,
// with a verdict:
//
//	ok          B's value is within the bound of A's
//	worse       B's value is worse than A's by more than the bound
//	unresolved  the better half of one side's rounds spreads wider than the
//	            bound, so the values cannot settle it - unless the whole
//	            better half of one side beats the other side's best round,
//	            which does
//
// Only the better half counts because the worse half is where a neighbour
// on the host shows: see bestDecile.
//
// It returns the process exit code: 1 if any metric is worse.
func compareFiles(pathA, pathB string) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", errA, errB)
		return 2
	}
	fmt.Printf("A: %s  commit %s seed %s calib %s ns\n", pathA, a.Fingerprint["commit"], a.Fingerprint["seed"], a.Fingerprint["machine.calib_ns"])
	fmt.Printf("B: %s  commit %s seed %s calib %s ns\n", pathB, b.Fingerprint["commit"], b.Fingerprint["seed"], b.Fingerprint["machine.calib_ns"])
	fmt.Printf("%-13s %-19s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric", "A", "A best..median", "B", "B best..median", "worse by", "bound", "verdict")
	worse := 0
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.name], b.Workloads[wd.name]
		if ra == nil || rb == nil || ra.Skipped != "" || rb.Skipped != "" {
			fmt.Printf("%-13s missing or skipped on one side\n", wd.name)
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			v := verdict(d, ma, mb)
			if v == "ok" && (ra.Saturated || rb.Saturated) && d.unit == "us" {
				v = "unresolved" // a saturated open loop has no steady-state latency
			}
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-13s %-19s %12.6g %25s %12.6g %25s %+7.1f%% %5.1f%%  %s\n", wd.name, d.name,
				ma.Value, fmt.Sprintf("[%.5g..%.5g]", best(d, ma), ma.Median), mb.Value, fmt.Sprintf("[%.5g..%.5g]", best(d, mb), mb.Median),
				100*worsening(d, ma.Value, mb.Value), 100*d.bound, v)
		}
	}
	if worse > 0 {
		fmt.Printf("%d metrics worse\n", worse)
		return 1
	}
	return 0
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is by what share of a the value b is worse, negative if better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// best is the best round of m.
func best(d metricDef, m metricValue) float64 {
	if d.higher {
		return m.Max
	}
	return m.Min
}

func verdict(d metricDef, a, b metricValue) string {
	// better(x, y): the better half of x's rounds beats every round of y.
	better := func(x, y metricValue) bool {
		if d.higher {
			return x.Median > y.Max
		}
		return x.Median < y.Min
	}
	spread := func(m metricValue) float64 {
		if m.Value == 0 {
			return 0
		}
		return math.Abs(m.Median-best(d, m)) / m.Value
	}
	noisy := spread(a) > d.bound || spread(b) > d.bound
	switch w := worsening(d, a.Value, b.Value); {
	case w > d.bound && (!noisy || better(a, b)):
		return "worse"
	case w <= d.bound && (!noisy || better(b, a)):
		return "ok"
	default:
		return "unresolved"
	}
}
