package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestReductionPct(t *testing.T) {
	for _, c := range []struct {
		name      string
		base, now int64
		want      float64
	}{
		{"no baseline", 0, 500, 0},
		{"negative baseline", -1, 500, 0},
		{"unchanged", 200, 200, 0},
		{"halved", 200, 100, 50},
		{"regressed", 200, 300, -50},
		{"zero now", 200, 0, 100},
	} {
		if got := reductionPct(c.base, c.now); got != c.want {
			t.Errorf("%s: reductionPct(%d, %d) = %v, want %v", c.name, c.base, c.now, got, c.want)
		}
	}
}

// TestQuickBaselineNotMeasured: a quick run counts no allocations, so its
// alloc and byte reductions must read "not measured" — never the -100% that
// reductionPct(base, 0) would produce — while a calibrated run reports all
// three as signed changes.
func TestQuickBaselineNotMeasured(t *testing.T) {
	base := perfBaseline{NsPerOp: 200, AllocsPerOp: 1000, BytesPerOp: 4000}
	for _, c := range []struct {
		name   string
		serial perfConfig
		quick  bool
		want   string
	}{
		{"quick", perfConfig{NsPerOp: 100}, true,
			"  vs baseline: allocs not measured  bytes not measured  time -50.0%"},
		{"calibrated", perfConfig{NsPerOp: 300, AllocsPerOp: 250, BytesPerOp: 4000}, false,
			"  vs baseline: allocs -75.0%  bytes +0.0%  time +50.0%"},
	} {
		b := compareBaseline(base, c.serial, c.quick)
		if got := baselineLine(b); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
		if measured := b.AllocReductionPct != nil && b.BytesReductionPct != nil; measured == c.quick {
			t.Errorf("%s: alloc/bytes reductions set = %v, want %v", c.name, measured, !c.quick)
		}
	}
}

// TestQuickPerfReport runs a tiny -perf -perf-quick report end to end: the
// JSON must leave the alloc and byte reductions out, carry no span records,
// and account for every candidate as compiled or avoided.
func TestQuickPerfReport(t *testing.T) {
	t.Setenv("STEERQ_VCLOCK", "1")
	out := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := runPerf(0.002, 1, 10, 2, -1, true, out, "", false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Baseline  map[string]any `json:"baseline"`
		Footprint perfFootprint  `json:"footprint"`
		Obs       map[string]any `json:"obs"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"alloc_reduction_pct", "bytes_reduction_pct"} {
		if v, ok := rep.Baseline[k]; ok {
			t.Errorf("quick report sets %s = %v; allocations were not measured", k, v)
		}
	}
	if _, ok := rep.Baseline["ns_reduction_pct"]; !ok {
		t.Error("quick report lost ns_reduction_pct")
	}
	if _, ok := rep.Obs["spans"]; ok {
		t.Error("report snapshot still carries span records")
	}
	if _, ok := rep.Obs["counters"]; !ok {
		t.Error("report snapshot lost its counters")
	}
	fp := rep.Footprint
	if fp.Candidates == 0 || fp.Compiled+fp.Avoided != fp.Candidates {
		t.Errorf("footprint census does not add up: %+v", fp)
	}
}
