package main

import (
	"strings"
	"testing"
)

// TestDiffLeg pins the ns/op and allocs/op gate: a change of exactly the
// threshold passes, one unit more fails, and a leg the old report never
// measured cannot regress.
func TestDiffLeg(t *testing.T) {
	const nsPct, allocsPct = 10, 5
	for _, c := range []struct {
		name                 string
		oldNs, newNs         int64
		oldAllocs, newAllocs int64
		want                 []string // substrings, one per expected regression
	}{
		{"unchanged", 1000, 1000, 200, 200, nil},
		{"improved", 1000, 500, 200, 100, nil},
		{"ns at threshold", 1000, 1100, 200, 200, nil},
		{"ns just over", 1000, 1101, 200, 200, []string{"leg ns/op +10.1% exceeds +10.0%"}},
		{"allocs at threshold", 1000, 1000, 200, 210, nil},
		{"allocs just over", 1000, 1000, 200, 211, []string{"leg allocs/op +5.5% exceeds +5.0%"}},
		{"both over", 1000, 2000, 200, 400, []string{"leg ns/op", "leg allocs/op"}},
		{"old not measured", 0, 5000, 0, 900, nil},
	} {
		got := diffLeg("leg", c.oldNs, c.newNs, c.oldAllocs, c.newAllocs, nsPct, allocsPct)
		if len(got) != len(c.want) {
			t.Errorf("%s: regressions = %q, want %d", c.name, got, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: regression %d = %q, want it to contain %q", c.name, i, got[i], w)
			}
		}
	}
}

// TestDiffScaling pins the speedup gate at the sweep's highest worker count:
// only a real (not oversubscribed) sweep present in both reports can fail,
// and only when its speedup drops by more than the threshold.
func TestDiffScaling(t *testing.T) {
	const speedupPct = 10
	sweep := func(speedup float64, oversubscribed bool) *perfScaling {
		return &perfScaling{
			Legs: []perfScalingLeg{
				{Workers: 1, Speedup: 1},
				{Workers: 2, Speedup: speedup},
			},
			SpeedupAtMax:   speedup,
			Oversubscribed: oversubscribed,
		}
	}
	for _, c := range []struct {
		name     string
		old, new *perfScaling
		wantBad  bool
	}{
		{"both nil", nil, nil, false},
		{"old nil", nil, sweep(1.8, false), false},
		{"new nil", sweep(1.8, false), nil, false},
		{"old empty", &perfScaling{}, sweep(1.8, false), false},
		{"new empty", sweep(1.8, false), &perfScaling{}, false},
		{"equal speedup", sweep(1.8, false), sweep(1.8, false), false},
		{"improved speedup", sweep(1.5, false), sweep(1.8, false), false},
		{"drop at threshold", sweep(2.0, false), sweep(1.8, false), false},
		{"drop over threshold", sweep(1.8, false), sweep(1.5, false), true},
		{"old oversubscribed", sweep(1.8, true), sweep(1.0, false), false},
		{"new oversubscribed", sweep(1.8, false), sweep(1.0, true), false},
		{"old speedup unmeasured", sweep(0, false), sweep(1.0, false), false},
	} {
		got := diffScaling(c.old, c.new, speedupPct)
		if bad := len(got) > 0; bad != c.wantBad {
			t.Errorf("%s: regressions = %q, want regression %v", c.name, got, c.wantBad)
		}
		if c.wantBad && !strings.Contains(got[0], "scaling speedup@2w") {
			t.Errorf("%s: regression %q does not name the gated worker count", c.name, got[0])
		}
	}
}

// TestFindSweepAndShape: the serving compare looks legs up by key and must
// get nil, not a zero value, for a leg the new report lacks.
func TestFindSweepAndShape(t *testing.T) {
	sweeps := []servingSweep{{ZipfSkew: 0}, {ZipfSkew: 1.1}}
	if got := findSweep(sweeps, 1.1); got != &sweeps[1] {
		t.Errorf("findSweep(1.1) = %p, want &sweeps[1]", got)
	}
	if got := findSweep(sweeps, 0.5); got != nil {
		t.Errorf("findSweep(0.5) = %+v, want nil", got)
	}
	if got := findSweep(nil, 0); got != nil {
		t.Errorf("findSweep(nil) = %+v, want nil", got)
	}
	shapes := []servingLeg{{Shape: "flat"}, {Shape: "burst"}}
	if got := findShape(shapes, "burst"); got != &shapes[1] {
		t.Errorf("findShape(burst) = %p, want &shapes[1]", got)
	}
	if got := findShape(shapes, "diurnal"); got != nil {
		t.Errorf("findShape(diurnal) = %+v, want nil", got)
	}
	if got := findShape(nil, "flat"); got != nil {
		t.Errorf("findShape(nil) = %+v, want nil", got)
	}
}
