package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// runCompare diffs two BENCH_pipeline.json reports (old vs new) and fails
// when the new serial leg, parallel leg, single-compile section, or scaling
// sweep regressed past the thresholds: nsPct percent on ns/op, allocsPct
// percent on allocs/op, and speedupPct percent on the scaling sweep's
// speedup at the highest worker count. Improvements and regressions inside
// the tolerance print as deltas; anything past a threshold prints as
// REGRESSION and makes the function return an error, so
// `steerq-bench -compare old.json` works as a CI gate around `make bench`.
// The speedup gate is skipped when either sweep is oversubscribed (more
// workers than cores) — those numbers are recorded for continuity, not
// scaling claims — or when either report predates the scaling section.
func runCompare(oldPath, newPath string, nsPct, allocsPct, speedupPct float64) error {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}

	fmt.Printf("compare: %s (old) vs %s (new); thresholds ns/op +%.1f%%, allocs/op +%.1f%%\n",
		oldPath, newPath, nsPct, allocsPct)
	if oldRep.Workload != newRep.Workload || oldRep.Jobs != newRep.Jobs || oldRep.Candidates != newRep.Candidates {
		fmt.Printf("  note: shapes differ (old %s/%dj/%dm, new %s/%dj/%dm) — deltas may not be like-for-like\n",
			oldRep.Workload, oldRep.Jobs, oldRep.Candidates, newRep.Workload, newRep.Jobs, newRep.Candidates)
	}

	var regressions []string
	leg := func(name string, o, n perfConfig) {
		if o.Skipped || n.Skipped {
			why := "old"
			if n.Skipped {
				why = "new"
			}
			fmt.Printf("  %-8s skipped (%s report has no measurement)\n", name, why)
			return
		}
		regressions = append(regressions, diffLeg(name, o.NsPerOp, n.NsPerOp, o.AllocsPerOp, n.AllocsPerOp, nsPct, allocsPct)...)
	}
	leg("serial", oldRep.Serial, newRep.Serial)
	leg("parallel", oldRep.Parallel, newRep.Parallel)
	regressions = append(regressions, diffLeg("compile",
		oldRep.Compile.NsPerCompile, newRep.Compile.NsPerCompile,
		oldRep.Compile.AllocsPerCompile, newRep.Compile.AllocsPerCompile, nsPct, allocsPct)...)
	regressions = append(regressions, diffScaling(oldRep.Scaling, newRep.Scaling, speedupPct)...)

	if len(regressions) > 0 {
		return fmt.Errorf("compare: %d regression(s) past threshold", len(regressions))
	}
	fmt.Println("  ok: no regressions past thresholds")
	return nil
}

// diffLeg prints one section's ns/op and allocs/op deltas and returns a
// description per metric that regressed past its threshold.
func diffLeg(name string, oldNs, newNs, oldAllocs, newAllocs int64, nsPct, allocsPct float64) []string {
	var bad []string
	nsDelta := deltaPct(oldNs, newNs)
	allocDelta := deltaPct(oldAllocs, newAllocs)
	fmt.Printf("  %-8s ns/op %s -> %s (%+.1f%%)  allocs/op %d -> %d (%+.1f%%)\n",
		name, time.Duration(oldNs), time.Duration(newNs), nsDelta, oldAllocs, newAllocs, allocDelta)
	if nsDelta > nsPct {
		msg := fmt.Sprintf("%s ns/op +%.1f%% exceeds +%.1f%%", name, nsDelta, nsPct)
		fmt.Printf("  REGRESSION: %s\n", msg)
		bad = append(bad, msg)
	}
	if allocDelta > allocsPct {
		msg := fmt.Sprintf("%s allocs/op +%.1f%% exceeds +%.1f%%", name, allocDelta, allocsPct)
		fmt.Printf("  REGRESSION: %s\n", msg)
		bad = append(bad, msg)
	}
	return bad
}

// diffScaling gates the scaling sweep's speedup at the highest worker count:
// a drop of more than speedupPct percent is a regression. Sweeps that are
// missing (old-format reports), empty, or oversubscribed print a note and
// pass — an oversubscribed "speedup" measures scheduler overhead under
// contention, not scaling, so gating on it would flap.
func diffScaling(o, n *perfScaling, speedupPct float64) []string {
	switch {
	case o == nil && n == nil:
		return nil
	case o == nil || n == nil:
		why := "old"
		if n == nil {
			why = "new"
		}
		fmt.Printf("  scaling  skipped (%s report has no scaling sweep)\n", why)
		return nil
	case len(o.Legs) == 0 || len(n.Legs) == 0:
		fmt.Printf("  scaling  skipped (empty sweep)\n")
		return nil
	}
	newMax := n.Legs[len(n.Legs)-1]
	drop := 0.0
	if o.SpeedupAtMax > 0 {
		drop = 100 * (1 - n.SpeedupAtMax/o.SpeedupAtMax)
	}
	fmt.Printf("  scaling  speedup@%dw %.2fx -> %.2fx (%+.1f%%)\n",
		newMax.Workers, o.SpeedupAtMax, n.SpeedupAtMax, -drop)
	if o.Oversubscribed || n.Oversubscribed {
		fmt.Printf("  scaling  speedup gate skipped (oversubscribed sweep: workers exceed cores)\n")
		return nil
	}
	if o.SpeedupAtMax > 0 && drop > speedupPct {
		msg := fmt.Sprintf("scaling speedup@%dw -%.1f%% exceeds -%.1f%% (%.2fx -> %.2fx)",
			newMax.Workers, drop, speedupPct, o.SpeedupAtMax, n.SpeedupAtMax)
		fmt.Printf("  REGRESSION: %s\n", msg)
		return []string{msg}
	}
	return nil
}

// deltaPct is the percent change from old to new; positive means new is
// worse (bigger). A non-positive old value yields 0 rather than dividing by
// zero — a report that never measured the metric cannot regress. The
// difference is taken in integers so a change of exactly the threshold
// compares equal to it instead of rounding past it.
func deltaPct(old, new int64) float64 {
	if old <= 0 {
		return 0
	}
	return float64(100*(new-old)) / float64(old)
}

func readReport(path string) (*perfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	var rep perfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return &rep, nil
}
