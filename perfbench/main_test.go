package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTallyCountsFailures(t *testing.T) {
	var ops tally
	for i := 0; i < 20; i++ {
		ops.check(i%4 != 0, "op %d failed", i)
	}
	ops.attempted += 80 // operations counted in bulk, all correct
	if ops.attempted != 100 || ops.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 100 and 5", ops.attempted, ops.failed)
	}
	if got := ops.frac(); got != 0.05 {
		t.Fatalf("frac = %g, want 0.05", got)
	}
	if len(ops.msgs) != 5 || !strings.Contains(ops.msgs[1], "op 4 failed") {
		t.Fatalf("messages %q", ops.msgs)
	}
	for i := 0; i < 20; i++ {
		ops.check(false, "more")
	}
	if len(ops.msgs) != maxFailureMsgs || ops.failed != 25 || ops.attempted != 120 {
		t.Fatalf("after 20 more failures: %d messages, %d failed of %d", len(ops.msgs), ops.failed, ops.attempted)
	}
	var none tally
	if none.frac() != 0 {
		t.Fatalf("empty tally frac = %g", none.frac())
	}
}

// Every metric name must be unique and fit BENCHMARK.json's name rules.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] || len(d.name) > 64 || d.unit == "" || len(d.unit) > 16 {
			t.Errorf("bad or repeated metric %q (%q)", d.name, d.unit)
		}
		seen[d.name] = true
		for _, c := range d.name {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-') {
				t.Errorf("metric %q has character %q", d.name, c)
			}
		}
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark reports,
// with the same units, in the same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.kind, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
}

func TestAnotherIteration(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		elapsed time.Duration
		done    int
		want    bool
	}{
		{0, 0, true},       // the first iteration always runs
		{40 * s, 0, true},  // even when nothing is left
		{20 * s, 4, true},  // 5s each: 25s fits in 30s
		{26 * s, 2, false}, // 13s each: 39s does not
		{27 * s, 9, true},  // 3s each: exactly 30s fits
		{28 * s, 7, false}, // 4s each: 32s does not
	} {
		if got := another(c.elapsed, c.done, 30*s); got != c.want {
			t.Errorf("another(%v, %d, 30s) = %v, want %v", c.elapsed, c.done, got, c.want)
		}
	}
}
