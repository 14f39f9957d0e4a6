package main

import (
	"fmt"
	"sort"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/experiments"
	"steerq/internal/learning"
	"steerq/internal/obs"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// The §7 learning run's parameters: workload B over a 4-day window,
// keeping the 2 largest qualifying job groups.
const (
	learnWorkload = "B"
	learnDays     = 4
	learnGroups   = 2
	// learnSetups is how many times each iteration sets up: one set-up
	// takes about 0.1 s, too short to time once per learning run.
	learnSetups = 3
	// learnRunSeconds is the expected length of one iteration; a window
	// of S seconds learns on S/learnRunSeconds populations.
	learnRunSeconds = 6
)

// learnCorpus is the workload seeds a window of d learns on: a fixed
// corpus of workload-B populations, in an order set by seed. One
// population's CPU per learned job varies with a coefficient of variation
// of about 0.2 (whichever work count divides it: jobs, jobs × arms,
// executions, compiles), and a window holds only about five learning runs,
// so populations drawn from the seed left the run-to-run spread of
// jobs_per_core_s between 0.09 and 0.26 over five ten-seed batches. Every
// window of the same length learns on the same populations instead, and
// its figure moves with the program, not with the draw.
func learnCorpus(seed uint64, d time.Duration) []uint64 {
	n := max(1, int(d/(learnRunSeconds*time.Second)))
	out := make([]uint64, n)
	for k, i := range xrand.New(seed).Derive("perfbench", "learn-order").Perm(n) {
		out[k] = runSeed(experiments.DefaultConfig().Seed, "learn", i)
	}
	return out
}

// runSeed derives the workload seed of the i-th iteration of a benchmark
// run. Successive iterations work on different generated workloads, so one
// benchmark run averages over several template and job-group populations
// instead of resting on one: the work in one population varies by up to
// 2.5× from seed to seed (measured: one learning run took 3.6 to 10.2 s
// over four seeds).
func runSeed(seed uint64, workload string, i int) uint64 {
	return xrand.New(seed).Derive("perfbench", workload, fmt.Sprint(i)).Seed()
}

// learnSetup builds a runner and generates the window's jobs (scopeql
// parse and bind included).
func learnSetup(seed uint64) *experiments.Runner {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	r := experiments.NewRunner(cfg)
	for d := 0; d < learnDays; d++ {
		r.Day(learnWorkload, d)
	}
	return r
}

// learnedJobs is the number of jobs a learning run executed under every
// arm and learned from.
func learnedJobs(run *experiments.LearningRun) int {
	n := 0
	for _, g := range run.Groups {
		n += g.Size
	}
	return n
}

// learnedGain is Table 5's test-split runtime saved by the learned choice
// over the default, in percent of the default.
func learnedGain(groups []learning.Evaluation) float64 {
	var def, learned float64
	for _, ev := range groups {
		for _, o := range ev.PerJob {
			def += o.Default
			learned += o.Learned
		}
	}
	if def == 0 {
		return 0
	}
	return 100 * (def - learned) / def
}

func evaluations(run *experiments.LearningRun) []learning.Evaluation {
	out := make([]learning.Evaluation, len(run.Groups))
	for i, g := range run.Groups {
		out[i] = g.Eval
	}
	return out
}

// checkOutcomes is the untraced learn oracle: the best arm is the fastest
// runtime measured for the job, so neither the default nor the learned
// choice may beat it. One operation per test job.
func checkOutcomes(run *experiments.LearningRun, ops *tally) {
	for _, g := range run.Groups {
		for _, o := range g.Eval.PerJob {
			ops.check(o.Best > 0 && o.Best <= o.Default && o.Best <= o.Learned,
				"learn job %s: best %g, default %g, learned %g", o.Job.ID, o.Best, o.Default, o.Learned)
		}
	}
}

// runLearn runs the learning run on each population of the window's
// corpus.
func runLearn(o runOpts, ops *tally) (map[string]float64, error) {
	if o.trace {
		return traceLearn(o, ops)
	}
	var setups, walls []float64
	var jobs int
	var wall, cpu time.Duration
	var evals []learning.Evaluation
	for i, seed := range learnCorpus(o.seed, o.seconds) {
		var r *experiments.Runner
		for k := 0; k < learnSetups; k++ {
			settle()
			t0 := now()
			r = learnSetup(seed)
			setups = append(setups, now().Sub(t0).Seconds())
		}
		settle()
		c0, t1 := cpuTime(), now()
		run, err := r.Learning(learnWorkload, learnDays, learnGroups)
		w, c := now().Sub(t1), cpuTime()-c0
		ops.check(err == nil, "learning run %d: %v", i, err)
		if err != nil {
			continue
		}
		n := learnedJobs(run)
		jobs += n
		wall += w
		cpu += c
		walls = append(walls, w.Seconds())
		evals = append(evals, evaluations(run)...)
		fmt.Printf("learn run %d: %d groups, %d jobs learned from, %.3fs wall %.3fs cpu, gain %.3f%%\n",
			i, len(run.Groups), n, w.Seconds(), c.Seconds(), learnedGain(evaluations(run)))
		checkOutcomes(run, ops)
	}
	if jobs == 0 {
		return nil, fmt.Errorf("no learning run learned from any job")
	}
	m := map[string]float64{
		"setup_s":         median(setups),
		"jobs_per_core_s": float64(jobs) / cpu.Seconds(),
		"peak_rss_mb":     peakRSSMB(),
	}
	section("learn: %d learning runs, seed %d", len(walls), o.seed)
	report("learn_s", median(walls), "s", "median learning-run wall")
	report("jobs_per_s", float64(jobs)/wall.Seconds(), "jobs/s", "jobs learned from over the runs' wall")
	report("learned_gain_pct", learnedGain(evals), "%", "test split, learned vs default")
	report("failed_frac", ops.frac(), "", "")
	return m, nil
}

// traceStats is a traced learning run's root and the counts it gathers
// beside its spans.
type traceStats struct {
	*rootSpan
	trainSamples int
}

// recomposeLearning rebuilds Runner.Learning from its public parts —
// Grouper.Group, the runner's default trials for the group filter,
// learning.CandidateArms, Collect, NewSplit, Train and Evaluate — with a
// span around each call. It must reproduce Runner.Learning's outcomes.
func recomposeLearning(t *Tracer, r *experiments.Runner) ([]learning.Evaluation, *traceStats, error) {
	st := &traceStats{rootSpan: t.openRoot("learn.run", "learn")}
	defer st.close()
	reg := r.Obs()

	h := r.Harness(learnWorkload)
	var jobs []*workload.Job
	for d := 0; d < learnDays; d++ {
		jobs = append(jobs, r.Day(learnWorkload, d)...)
	}
	var groups []*steering.JobGroup
	var err error
	t.Call("steering.group", "learn", st.id, func() { groups, err = steering.NewGrouper(h).Group(jobs) })
	if err != nil {
		return nil, st, err
	}
	var selected []*steering.JobGroup
	t.CallProgram(reg, "learning.select", "learn", st.id, func() {
		for _, g := range groups {
			if len(selected) == learnGroups {
				break
			}
			if len(g.Jobs) < r.Cfg.LearnMinGroup || medianDefault(r, g.Jobs) < r.Cfg.LearnMinMedianSec {
				continue
			}
			selected = append(selected, g)
		}
	})
	p := r.Pipeline(learnWorkload)
	rnd := xrand.New(r.Cfg.Seed).Derive("learning", learnWorkload)
	var evals []learning.Evaluation
	for gi, g := range selected {
		run := fmt.Sprintf("group%d", gi+1)
		var arms []bitvec.Vector
		t.CallProgram(reg, "learning.arms", run, st.id, func() { arms, err = learning.CandidateArms(p, g.Jobs, 3, 10) })
		if err != nil {
			return nil, st, err
		}
		members := g.Jobs
		if len(members) > 250 {
			members = members[:250]
		}
		var ds *learning.Dataset
		t.CallProgram(reg, "learning.collect", run, st.id, func() { ds = learning.Collect(h, g.Signature, members, arms) })
		if len(ds.Examples) < 20 {
			continue
		}
		split := learning.NewSplit(len(ds.Examples), rnd.Derive("split", fmt.Sprint(gi)))
		st.trainSamples += len(split.Train)
		var model *learning.Model
		t.Call("learning.train", run, st.id, func() {
			model = learning.Train(ds, split, learning.DefaultTrainOptions(), rnd.Derive("model", fmt.Sprint(gi)))
		})
		var ev learning.Evaluation
		t.Call("learning.evaluate", run, st.id, func() { ev = learning.Evaluate(model, ds, split.Test) })
		evals = append(evals, ev)
	}
	return evals, st, nil
}

// medianDefault is the median default runtime of jobs, from the runner's
// memoized default trials (the group filter Runner.Learning applies).
func medianDefault(r *experiments.Runner, jobs []*workload.Job) float64 {
	var rts []float64
	for _, j := range jobs {
		if t := r.DefaultTrial(learnWorkload, j); t.Err == nil {
			rts = append(rts, t.Metrics.RuntimeSec)
		}
	}
	if len(rts) == 0 {
		return 0
	}
	sort.Float64s(rts)
	return rts[len(rts)/2]
}

// traceLearn is the traced learn run: untraced Runner.Learning (after a
// warm-up run) and the traced recomposition on a fresh runner of the same
// seed. Every test
// job's outcome, and so learned_gain_pct, must agree.
func traceLearn(o runOpts, ops *tally) (map[string]float64, error) {
	seed := learnCorpus(o.seed, o.seconds)[0]
	t := NewTracer()
	var r *experiments.Runner
	t.Call("workload.day", "learn", 0, func() { r = learnSetup(seed) })
	dayDur, _ := spanTotal(t.Spans(), "workload.day")

	// The first run of a process also grows its heap; the untraced baseline
	// of the overhead is a second run on a fresh runner.
	if _, err := r.Learning(learnWorkload, learnDays, learnGroups); err != nil {
		return nil, fmt.Errorf("warm-up learning run: %w", err)
	}
	r = learnSetup(seed)
	t0 := now()
	run, err := r.Learning(learnWorkload, learnDays, learnGroups)
	untracedWall := now().Sub(t0)
	if err != nil {
		return nil, fmt.Errorf("untraced learning run: %w", err)
	}
	fresh := learnSetup(seed)
	evals, st, err := recomposeLearning(t, fresh)
	if err != nil {
		return nil, fmt.Errorf("traced learning run: %w", err)
	}
	want := evaluations(run)
	ops.check(len(evals) == len(want), "traced learning run kept %d groups, untraced %d", len(evals), len(want))
	for gi := 0; gi < len(evals) && gi < len(want); gi++ {
		got, exp := evals[gi].PerJob, want[gi].PerJob
		ops.check(len(got) == len(exp), "group %d: %d traced test jobs, %d untraced", gi+1, len(got), len(exp))
		for i := 0; i < len(got) && i < len(exp); i++ {
			a, b := got[i], exp[i]
			ops.check(a.Job.ID == b.Job.ID && a.Default == b.Default && a.Learned == b.Learned && a.Best == b.Best && a.Arm == b.Arm,
				"group %d job %s: traced outcome %+v differs from untraced %+v", gi+1, b.Job.ID, a, b)
		}
	}
	tracedGain, untracedGain := learnedGain(evals), learnedGain(want)
	ops.check(tracedGain == untracedGain, "learned_gain_pct traced %g, untraced %g", tracedGain, untracedGain)

	spans := t.Spans()
	att := Attribute(spans, st.id)
	if err := att.Check(); err != nil {
		ops.check(false, "%v", err)
	}
	arms, _ := spanTotal(spans, "learning.arms")
	collect, _ := spanTotal(spans, "learning.collect")
	train, _ := spanTotal(spans, "learning.train")
	evaluate, _ := spanTotal(spans, "learning.evaluate")
	group, _ := spanTotal(spans, "steering.group")
	snap := fresh.Obs().Snapshot()
	cache := fresh.CacheStats(learnWorkload)
	jobs := learnedJobs(run)
	m := map[string]float64{
		"workload.day_ms":                 ms(dayDur),
		"steering.group_s":                group.Seconds(),
		"steering.recompile_s":            programTotal(snap.Spans, "pipeline.recompile").Seconds(),
		"steering.execute_s":              programTotal(snap.Spans, "pipeline.execute").Seconds(),
		"steering.span_search_s":          att.layerSeconds("pipeline.span_search"),
		"steering.cache_hit_rate":         cache.HitRate(),
		"steering.cache_probes_per_entry": ratio(float64(cache.Hits+cache.Misses), float64(cache.Entries)),
		"abtest.compile_s":                att.layerSeconds("abtest.compile"),
		"abtest.exec_s":                   att.layerSeconds("abtest.exec"),
		"learning.arms_s":                 arms.Seconds(),
		"learning.collect_s":              collect.Seconds(),
		"learning.train_s":                train.Seconds(),
		"learning.evaluate_s":             evaluate.Seconds(),
		"learning.train_samples":          float64(st.trainSamples),
		"go.gc_cpu_frac":                  st.goBefore.gcCPUFrac(st.goAfter),
		"go.alloc_mb_per_job":             ratio(st.goBefore.allocMB(st.goAfter), float64(jobs)),
		"trace.overhead_s":                (st.wall - untracedWall).Seconds(),
		"trace.unattributed_frac":         att.Unattributed.Seconds() / att.Wall.Seconds(),
	}
	addRegistryLayers(m, snap)
	printAttribution(att)
	section("learn traced: untraced %.3fs, traced %.3fs, learned_gain_pct %.4f (traced) %.4f (untraced)",
		untracedWall.Seconds(), st.wall.Seconds(), tracedGain, untracedGain)
	return m, nil
}

// programTotal is the summed duration of the program's spans of one stage.
func programTotal(spans []obs.SpanPoint, stage string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Stage == stage {
			d += s.DurationNs
		}
	}
	return time.Duration(d)
}
