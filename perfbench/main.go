package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workers is the process's parallelism everywhere: GOMAXPROCS, the
// pipeline's Workers and the serve workload's senders. The benchmark
// refuses to run on fewer cores, so no figure is recorded oversubscribed.
const workers = 2

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload;
// BENCHMARK.json declares the same list with its bounds. A "job" is the
// unit a user of the workload asks for: a job of the day grouped and
// decided by the bundle build (discover), a job executed under every arm
// and learned from (learn), a job submission asking the daemon for its
// configuration (serve).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_core_s", "jobs/core-s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"workload.day_ms", "ms"},
	{"steering.group_s", "s"},
	{"steering.recompile_s", "s"},
	{"steering.execute_s", "s"},
	{"steering.span_search_s", "s"},
	{"steering.recompile_core_util", "ratio"},
	{"steering.candidates", "count"},
	{"steering.compiles", "count"},
	{"steering.compiles_avoided", "count"},
	{"steering.cache_hit_rate", "ratio"},
	{"steering.cache_probes_per_entry", "ratio"},
	{"par.items", "count"},
	{"par.steals", "count"},
	{"par.merges", "count"},
	{"cascades.compiles", "count"},
	{"cascades.rule_firings", "count"},
	{"cascades.memo_exprs_mean", "count"},
	{"abtest.compile_s", "s"},
	{"abtest.exec_s", "s"},
	{"exec.trials", "count"},
	{"learning.arms_s", "s"},
	{"learning.collect_s", "s"},
	{"learning.train_s", "s"},
	{"learning.evaluate_s", "s"},
	{"learning.train_samples", "count"},
	{"bundle.encode_ms", "ms"},
	{"bundle.bytes", "bytes"},
	{"bundle.decode_ms", "ms"},
	{"serve.table_build_ms", "ms"},
	{"serve.table_lookup_ns", "ns"},
	{"serve.sdk_lookup_ns", "ns"},
	{"serve.sdk_lookup_bare_ns", "ns"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.hit_frac", "ratio"},
	{"serve.fallback_frac", "ratio"},
	{"serve.default_frac", "ratio"},
	{"net.roundtrip_us", "us"},
	{"loadgen.send_lag_p99_us", "us"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_job", "MB"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_frac", "ratio"},
}

// runOpts are one invocation's arguments.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// workloadFunc runs one workload and returns its metrics by name; ops
// counts the operations attempted and failed.
type workloadFunc func(o runOpts, ops *tally) (map[string]float64, error)

var workloads = map[string]workloadFunc{
	"discover": runDiscover,
	"learn":    runLearn,
	"serve":    runServe,
}

// tally counts operations attempted and failed, keeping the first few
// failure messages for the report.
type tally struct {
	attempted, failed int
	msgs              []string
}

const maxFailureMsgs = 8

// check counts one operation, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.msgs) < maxFailureMsgs {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// frac is failed ÷ attempted.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: discover, learn or serve")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload discover|learn|serve, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if runtime.NumCPU() < workers {
		fmt.Fprintf(os.Stderr, "perfbench: %d workers need %d cores, have %d; refusing to measure oversubscribed\n",
			workers, workers, runtime.NumCPU())
		os.Exit(1)
	}
	runtime.GOMAXPROCS(workers)

	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var ops tally
	got, err := fn(o, &ops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Attempted: ops.attempted, Failed: ops.failed, Metrics: make(map[string]metricValue, len(defs))}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *name)
		os.Exit(1)
	}
	res.Correct = ops.failed == 0
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !o.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, m := range ops.msgs {
		fmt.Printf("FAILED: %s\n", m)
	}
	fmt.Printf("%s: attempted %d, failed %d (failed_frac %.6f)\n", *name, ops.attempted, ops.failed, ops.frac())
	printMetrics(defs, got)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetrics prints every reported metric by name and unit, one a line.
func printMetrics(defs []metricDef, got map[string]float64) {
	names := make([]string, 0, len(defs))
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		report(n, got[n], units[n], "")
	}
}

// report prints one figure by name and unit ahead of the JSON result:
// every reported metric, and the workload figures BENCHMARK.json does not
// gate (see doc.go).
func report(name string, value float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-32s %14.6g %s%s\n", name, value, unit, note)
}

// section prints a heading line for a group of report lines.
func section(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// another reports whether a window of length window, of which elapsed has
// gone on done iterations, has room for one more at their mean length. The
// first iteration always runs, so a run ends near its window instead of
// overrunning it by a whole iteration.
func another(elapsed time.Duration, done int, window time.Duration) bool {
	return done == 0 || elapsed+elapsed/time.Duration(done) <= window
}
