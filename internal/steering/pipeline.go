package steering

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/par"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// Candidate is one recompiled (not executed) rule configuration for a job.
type Candidate struct {
	Config    bitvec.Vector
	EstCost   float64
	Signature bitvec.Vector
}

// Analysis is the pipeline's per-job record.
type Analysis struct {
	Job *workload.Job

	// Default holds the compiled and executed default-configuration trial.
	Default abtest.Trial

	// Span is the job span found by Algorithm 1.
	Span bitvec.Vector

	// Candidates are the successfully recompiled candidate configurations
	// (compile failures are dropped — §4 expects them).
	Candidates []Candidate

	// Selected are the configurations chosen for execution (the cheapest
	// by estimated cost, deduplicated by signature).
	Selected []Candidate

	// Trials are the executions of Selected, aligned by index. Under fault
	// injection a trial whose configuration failed persistently is replaced
	// by a copy of Default with FellBack set.
	Trials []abtest.Trial

	// Robustness tallies the injected-fault handling this analysis needed:
	// retries, timeouts, corrupted compiles and fallbacks. Always zero when
	// injection is off. Accumulated serially in candidate order, so it is
	// identical at any worker count.
	Robustness faults.Record

	// Footprint reports how far the compile cache collapsed the candidate
	// stage: of Candidates generated configurations, only Compiled went
	// through the optimizer; the rest (Avoided) hit the cache, directly or
	// through footprint projection.
	Footprint FootprintStats

	// Sched summarizes the candidate stage's scheduling. Every field is a
	// function of the candidate sequence and the worker count, never of
	// timing.
	Sched SchedStats
}

// SchedStats aggregates scheduler activity over the candidate stage (and,
// through Add, over whole workloads in steerq-bench).
type SchedStats struct {
	// Items counts compiles dispatched through the scheduler.
	Items int
	// Steals is always 0: par.Run dispatches from one shared cursor and
	// never steals. The field stays only for readers that still report it.
	Steals uint64
	// Merges counts serial merge phases (one per candidate stage).
	Merges int
	// MaxWorkers is the widest resolved worker count any fan-out ran with.
	MaxWorkers int
}

// Add accumulates o into s (for workload-level reporting).
func (s *SchedStats) Add(o SchedStats) {
	s.Items += o.Items
	s.Merges += o.Merges
	if o.MaxWorkers > s.MaxWorkers {
		s.MaxWorkers = o.MaxWorkers
	}
}

// FootprintStats summarizes how far the compile cache's footprint
// projection collapsed one candidate stage.
type FootprintStats struct {
	// Candidates is the number of candidate configurations generated.
	Candidates int
	// Compiled is the number of candidates actually sent through the
	// optimizer (including faulted attempts).
	Compiled int
	// Avoided counts candidates resolved by a compile-cache hit.
	Avoided int
}

// Add accumulates o into s (for workload-level reporting).
func (s *FootprintStats) Add(o FootprintStats) {
	s.Candidates += o.Candidates
	s.Compiled += o.Compiled
	s.Avoided += o.Avoided
}

// Pipeline is the offline discovery pipeline of §5–6: span computation,
// randomized candidate search, recompilation, heuristic selection and
// selective A/B execution. Fault tolerance — injection, retry policy and
// per-attempt timeouts — is configured on the Harness and honored at every
// compile and execution site here.
type Pipeline struct {
	Harness *abtest.Harness
	Rand    *xrand.Source

	// MaxCandidates is M, the number of candidate configurations to
	// recompile per job (the paper uses up to 1000).
	MaxCandidates int

	// ExecutePerJob is how many recompiled candidates are executed (the
	// paper executes the 10 cheapest).
	ExecutePerJob int

	// Workers bounds the goroutines recompiling candidates. Zero resolves
	// through STEERQ_WORKERS and then GOMAXPROCS (see internal/par); any
	// value yields bit-for-bit identical analyses — results are slotted by
	// candidate index, each job draws from its own derived RNG stream, and
	// fault decisions are keyed by content, not schedule.
	Workers int

	// Cache, when non-nil, memoizes {cost, signature} per (job fingerprint,
	// config) so recurring jobs skip identical recompilations. Safe to share
	// across goroutines and across pipelines of one workload. Faulted
	// compilations — injected failures, timeouts, corrupted plans — are
	// never cached; only validated successes and genuine no-plan outcomes
	// are.
	Cache *CompileCache

	// Obs, when non-nil, records per-stage spans (pipeline.recompile,
	// pipeline.span_search, pipeline.execute — tagged by job ID, never by
	// schedule) and candidate/trial outcome counters, and mirrors the
	// serially merged faults.Record into robustness counters. All recorded
	// state is commutative or content-keyed, so snapshots stay bit-identical
	// at any Workers value.
	Obs *obs.Registry

	// schedMu guards the lazily built scheduler plumbing below; a Pipeline
	// may serve concurrent Analyze calls, and each checks arenas out for
	// the duration of its candidate stage.
	schedMu sync.Mutex
	// arenaFree is the free list of per-worker compile arenas. Arenas are
	// keyed by scheduler worker identity while checked out, so a compile
	// never touches the cascades scratch pool from the fan-out path.
	arenaFree []*cascades.Scratch
	// schedObs is the pipeline's scheduler telemetry, resolved once
	// against Obs.
	schedObs *par.SchedObs
}

// NewPipeline returns a pipeline with the paper's parameters (M=1000, 10
// executions per job).
func NewPipeline(h *abtest.Harness, r *xrand.Source) *Pipeline {
	return &Pipeline{Harness: h, Rand: r, MaxCandidates: 1000, ExecutePerJob: 10}
}

// Analyze runs the full pipeline for one job: default execution, span,
// candidate generation, recompilation, selection of the cheapest plans and
// their execution.
func (p *Pipeline) Analyze(job *workload.Job) (*Analysis, error) {
	return p.AnalyzeCtx(context.Background(), job)
}

// AnalyzeCtx is Analyze bounded by a context; cancellation surfaces as the
// returned error once in-flight compile attempts notice it.
func (p *Pipeline) AnalyzeCtx(ctx context.Context, job *workload.Job) (*Analysis, error) {
	a, err := p.RecompileCtx(ctx, job)
	if err != nil {
		return nil, err
	}
	p.ExecuteCtx(ctx, a)
	return a, nil
}

// Recompile runs the cheap half of the pipeline — everything except
// executing the alternatives: the default trial, the span, and the M
// recompiled candidates. Figure 4 is produced from this stage alone.
func (p *Pipeline) Recompile(job *workload.Job) (*Analysis, error) {
	return p.RecompileCtx(context.Background(), job)
}

// RecompileCtx is Recompile bounded by a context.
func (p *Pipeline) RecompileCtx(ctx context.Context, job *workload.Job) (*Analysis, error) {
	ctx, sp := p.Obs.StartSpan(ctx, "pipeline.recompile", job.ID)
	a, err := p.recompileCtx(ctx, job)
	sp.EndErr(err)
	if a != nil {
		mirrorRobustness(p.Obs, a.Robustness)
	}
	return a, err
}

func (p *Pipeline) recompileCtx(ctx context.Context, job *workload.Job) (*Analysis, error) {
	h := p.Harness
	a := &Analysis{Job: job}
	def := h.RunConfigCtx(ctx, job.Root, h.Opt.Rules.DefaultConfig(), job.Day, job.ID+"/default", &a.Robustness)
	if def.Err != nil {
		return nil, fmt.Errorf("steering: default compile of %s: %w", job.ID, def.Err)
	}
	a.Default = def
	// Span probing is serial, so a plain counter gives each probe a stable
	// tag independent of worker count.
	probe := 0
	_, spanSp := p.Obs.StartSpan(ctx, "pipeline.span_search", job.ID)
	span, err := JobSpanFunc(h.Opt.Rules, func(cfg bitvec.Vector) (bitvec.Vector, error) {
		tag := fmt.Sprintf("%s/span%d", job.ID, probe)
		probe++
		v, cerr := p.compile(ctx, job, cfg, tag, &a.Robustness)
		if cerr != nil {
			return bitvec.Vector{}, cerr
		}
		return v.Signature, nil
	})
	spanSp.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("steering: span of %s: %w", job.ID, err)
	}
	a.Span = span
	// Config generation stays serial on the job's derived stream; only the
	// pure compile calls fan out below.
	r := p.Rand.Derive("job", job.ID)
	cfgs := CandidateConfigs(span, h.Opt.Rules, p.MaxCandidates, r)
	p.resolveCandidates(ctx, job, cfgs, a)
	p.Obs.Counter("steerq_pipeline_compiles_avoided_total").Add(uint64(a.Footprint.Avoided))
	return a, nil
}

// Candidate-stage metric names and merge histogram bounds. Durations read the
// registry clock, so frozen-clock runs record deterministic zeros exactly
// like span durations.
const (
	candidatesMetric   = "steerq_pipeline_candidates_total"
	mergeSecondsMetric = "steerq_pipeline_merge_seconds"
	mergesMetric       = "steerq_pipeline_merges_total"
)

var mergeSecondsBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}

// checkoutArenas takes w compile arenas off the pipeline's free list
// (growing it on first use); returnArenas gives them back. Checked-out
// arenas are indexed by scheduler worker identity, whose exclusivity
// guarantee replaces locking.
func (p *Pipeline) checkoutArenas(w int) []*cascades.Scratch {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	out := make([]*cascades.Scratch, w)
	for i := range out {
		if n := len(p.arenaFree); n > 0 {
			out[i] = p.arenaFree[n-1]
			p.arenaFree = p.arenaFree[:n-1]
		} else {
			out[i] = cascades.NewScratch()
		}
	}
	return out
}

func (p *Pipeline) returnArenas(arenas []*cascades.Scratch) {
	p.schedMu.Lock()
	p.arenaFree = append(p.arenaFree, arenas...)
	p.schedMu.Unlock()
}

// schedTelemetry resolves (once) the scheduler's obs instruments against
// the pipeline's registry; nil when the pipeline is uninstrumented.
func (p *Pipeline) schedTelemetry() *par.SchedObs {
	if p.Obs == nil {
		return nil
	}
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	if p.schedObs == nil {
		p.schedObs = par.NewSchedObs(p.Obs)
	}
	return p.schedObs
}

// missSlot is one cache-missing candidate's compile outcome, written by
// exactly one fan-out item and read by the serial merge: the compile value,
// its error, and the fault record the attempt accumulated.
type missSlot struct {
	v   CompileValue
	err error
	rec faults.Record
}

// resolveCandidates resolves every candidate configuration to a compile
// outcome in three phases: one serial sweep probes the compile cache for
// each candidate, one par.Run fan-out compiles the misses into
// per-candidate slots, and one serial merge applies every outcome in
// ascending candidate index and writes the cache through a single PutBatch.
// The cache's footprint projection is the only cross-candidate sharing: a
// candidate hits when an earlier compile (a span probe, or a previous
// analysis of the same job) read a footprint it agrees with.
//
// The fan-out is write-free on every shared structure: each item compiles
// through its worker's checked-out arena (the worker-identity exclusivity of
// par.Run is the lock) into its own slot. Counters, fault records and cache
// insertion order are applied by the merge alone, so they never see worker
// count or schedule, and heavier candidates (more enabled rules) are
// scheduled first via the priority hook without affecting any of it.
func (p *Pipeline) resolveCandidates(ctx context.Context, job *workload.Job, cfgs []bitvec.Vector, a *Analysis) {
	a.Footprint.Candidates = len(cfgs)
	fp, cacheable := jobFingerprint(job)
	cacheable = cacheable && p.Cache != nil

	// Sweep: one cache probe per candidate. misses is ascending, which the
	// merge relies on to tell hits from misses.
	cached := make([]CompileValue, len(cfgs))
	misses := make([]int, 0, len(cfgs))
	for i, cfg := range cfgs {
		if cacheable {
			if v, ok := p.Cache.Get(fp, cfg); ok {
				cached[i] = v
				continue
			}
		}
		misses = append(misses, i)
	}

	// Fan-out: compile every miss into its own slot; nothing shared is
	// written.
	workers := par.Workers(p.Workers)
	if workers > len(misses) {
		workers = len(misses)
	}
	arenas := p.checkoutArenas(workers)
	defer p.returnArenas(arenas)
	slots := make([]missSlot, len(misses))
	st, _ := par.Run(workers, len(misses), par.Options{
		Priority: func(mi int) int64 { return int64(cfgs[misses[mi]].Count()) },
		Obs:      p.schedTelemetry(),
	}, func(worker, mi int) error {
		s := &slots[mi]
		tag := fmt.Sprintf("%s/cand%d", job.ID, misses[mi])
		s.v, s.err = p.compileFresh(ctx, job, cfgs[misses[mi]], tag, &s.rec, arenas[worker])
		return nil
	})
	a.Sched.Items += st.Items
	if st.Workers > a.Sched.MaxWorkers {
		a.Sched.MaxWorkers = st.Workers
	}

	// Merge: apply outcomes in ascending candidate index — the order a
	// serial run produces. Candidate outcomes are counters, not spans: M can
	// be 1000, so they are tallied here and added once.
	clock := p.Obs.Clock()
	mergeStart := clock()
	a.Candidates = make([]Candidate, 0, len(cfgs))
	writes := make([]CacheWrite, 0, len(misses))
	var noplan, faulted int
	mi := 0
	for i, cfg := range cfgs {
		v := cached[i]
		if mi == len(misses) || misses[mi] != i {
			a.Footprint.Avoided++
		} else {
			s := &slots[mi]
			mi++
			a.Robustness.Add(s.rec)
			a.Footprint.Compiled++
			if s.err != nil && !errors.Is(s.err, cascades.ErrNoPlan) {
				// Faulted compile: no footprint to trust, nothing cached.
				faulted++
				continue
			}
			if cacheable {
				writes = append(writes, CacheWrite{Config: cfg, Value: s.v})
			}
			v = s.v
		}
		if !v.OK {
			noplan++
			continue
		}
		a.Candidates = append(a.Candidates, Candidate{Config: cfg, EstCost: v.Cost, Signature: v.Signature})
	}
	p.Cache.PutBatch(fp, writes)
	p.Obs.Counter(candidatesMetric, "outcome", "compiled").Add(uint64(len(a.Candidates)))
	p.Obs.Counter(candidatesMetric, "outcome", "noplan").Add(uint64(noplan))
	p.Obs.Counter(candidatesMetric, "outcome", "faulted").Add(uint64(faulted))
	a.Sched.Merges++
	p.Obs.Counter(mergesMetric).Inc()
	p.Obs.Histogram(mergeSecondsMetric, mergeSecondsBounds).Observe(clock().Sub(mergeStart).Seconds())
}

// compile optimizes job under cfg through the cache, retrying injected
// faults per the harness policy. Failed compilations surface as
// cascades.ErrNoPlan exactly as from Optimize, whether fresh or cached;
// fault-injected errors surface wrapped and are never cached. Serial
// callers only (span probes): the cache traffic must stay ordered.
func (p *Pipeline) compile(ctx context.Context, job *workload.Job, cfg bitvec.Vector, tag string, rec *faults.Record) (CompileValue, error) {
	fp, cacheable := jobFingerprint(job)
	cacheable = cacheable && p.Cache != nil
	if cacheable {
		if v, ok := p.Cache.Get(fp, cfg); ok {
			if !v.OK {
				return v, cascades.ErrNoPlan
			}
			return v, nil
		}
	}
	v, err := p.compileFresh(ctx, job, cfg, tag, rec, nil)
	if err != nil {
		// Only the optimizer's own no-plan verdict is negative-cached;
		// injected failures, timeouts and corruption must not poison the
		// cache for later (possibly fault-free) lookups.
		if cacheable && errors.Is(err, cascades.ErrNoPlan) {
			p.Cache.Put(fp, cfg, v)
		}
		return v, err
	}
	if cacheable {
		p.Cache.Put(fp, cfg, v)
	}
	return v, nil
}

// compileFresh runs one cache-free compile of job under cfg, retrying
// injected faults per the harness policy. On success the returned value
// carries the compile's decision footprint; a genuine no-plan outcome
// (cascades.ErrNoPlan) returns OK=false but still carries the footprint, so
// negatives share through the cache's footprint projection exactly like
// successes.
//
// arena, when non-nil, is the caller's worker-local compile arena; nil
// falls back to the cascades scratch pool (the serial span-probe path).
func (p *Pipeline) compileFresh(ctx context.Context, job *workload.Job, cfg bitvec.Vector, tag string, rec *faults.Record, arena *cascades.Scratch) (CompileValue, error) {
	h := p.Harness
	pol := faults.PolicyOrDefault(h.Retry, h.Faults)
	// Candidate resolution keeps only the costed verdict, so skip plan
	// materialization — the compile's single largest allocation — unless
	// fault injection is active: corruption and validation target the plan
	// and must keep seeing one.
	buildPlan := h.Faults.Active()
	var res *cascades.Result
	_, err := pol.Do(ctx, faults.SiteCompile, h.Faults.RetryRand(faults.SiteCompile, tag), rec,
		func(actx context.Context, attempt int) error {
			ictx, cancel := par.ItemContext(actx, h.CompileTimeout)
			defer cancel()
			r, cerr := h.Faults.CompileAttempt(ictx, tag, attempt, func() (*cascades.Result, error) {
				if buildPlan {
					return h.Opt.OptimizeInto(arena, job.Root, cfg)
				}
				return h.Opt.OptimizeCostInto(arena, job.Root, cfg)
			})
			if r != nil {
				// Optimize reports a result even for its no-plan verdict;
				// capture it so the failing footprint survives the error.
				res = r
			}
			return cerr
		})
	if err != nil {
		v := CompileValue{}
		if res != nil && errors.Is(err, cascades.ErrNoPlan) {
			v.Footprint = res.Footprint
		}
		return v, err
	}
	return CompileValue{Cost: res.Cost, Signature: res.Signature, Footprint: res.Footprint, OK: true}, nil
}

// Execute selects the cheapest recompiled candidates (deduplicated by rule
// signature, so the executed set spans distinct plans) and runs them through
// the A/B harness.
func (p *Pipeline) Execute(a *Analysis) {
	p.ExecuteCtx(context.Background(), a)
}

// ExecuteCtx is Execute bounded by a context. Under fault injection, a
// selected trial that still fails after the retry budget degrades gracefully:
// the pipeline falls back to the already-executed default trial (marked
// FellBack) and counts the fallback in a.Robustness — the steered job runs,
// just without its steering.
func (p *Pipeline) ExecuteCtx(ctx context.Context, a *Analysis) {
	ctx, sp := p.Obs.StartSpan(ctx, "pipeline.execute", a.Job.ID)
	before := a.Robustness
	defer func() {
		sp.End(obs.OutcomeOK)
		mirrorRobustness(p.Obs, recordDelta(a.Robustness, before))
	}()
	cands := append([]Candidate(nil), a.Candidates...)
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].EstCost < cands[j].EstCost })
	seen := map[bitvec.Key]bool{a.Default.Signature.Key(): true}
	for _, c := range cands {
		if len(a.Selected) >= p.ExecutePerJob {
			break
		}
		k := c.Signature.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		a.Selected = append(a.Selected, c)
	}
	h := p.Harness
	for i, c := range a.Selected {
		t := h.RunConfigCtx(ctx, a.Job.Root, c.Config, a.Job.Day, fmt.Sprintf("%s/alt%d", a.Job.ID, i), &a.Robustness)
		if t.Err != nil && h.Faults.Active() {
			fb := a.Default
			fb.Attempts = t.Attempts
			fb.FellBack = true
			a.Robustness.Fallbacks++
			t = fb
		}
		p.Obs.Counter("steerq_pipeline_trials_total", "outcome", trialOutcome(t.Err, t.FellBack)).Inc()
		a.Trials = append(a.Trials, t)
	}
}

// Metric selects which §3.1.2 metric a comparison optimizes.
type Metric int

// Metrics of interest (§3.1.2).
const (
	MetricRuntime Metric = iota
	MetricCPU
	MetricIO
)

var metricNames = [...]string{"runtime", "cpu-time", "io-time"}

func (m Metric) String() string { return metricNames[m] }

// value extracts the metric from a trial.
func (m Metric) value(t *abtest.Trial) float64 {
	switch m {
	case MetricCPU:
		return t.Metrics.CPUSec
	case MetricIO:
		return t.Metrics.IOTimeSec
	}
	return t.Metrics.RuntimeSec
}

// BestAlternative returns the executed trial with the lowest value of the
// metric, or nil when nothing was executed. Fallback trials are skipped:
// they duplicate the default and must not masquerade as an improvement.
func (a *Analysis) BestAlternative(m Metric) *abtest.Trial {
	var best *abtest.Trial
	for i := range a.Trials {
		t := &a.Trials[i]
		if t.Err != nil || t.FellBack {
			continue
		}
		if best == nil || m.value(t) < m.value(best) {
			best = t
		}
	}
	return best
}

// BestConfig returns the trial (including the default) with the lowest value
// of the metric: "always choose the best known rule configuration" (Table 3
// includes the default, since some jobs improve under none of the
// alternatives).
func (a *Analysis) BestConfig(m Metric) *abtest.Trial {
	best := &a.Default
	if alt := a.BestAlternative(m); alt != nil && m.value(alt) < m.value(best) {
		best = alt
	}
	return best
}

// PercentChange returns the percentage change of the trial's metric from the
// default (negative is an improvement; bounded below by -100%, unbounded
// above, exactly as Figure 6 notes).
func (a *Analysis) PercentChange(t *abtest.Trial, m Metric) float64 {
	d := m.value(&a.Default)
	if d == 0 {
		return 0
	}
	return 100 * (m.value(t) - d) / d
}

// CheaperCandidates reports candidates whose estimated cost undercuts the
// default by at least frac (e.g. 0.1 = 10% cheaper) — heuristic (1) of §6.1.
func (a *Analysis) CheaperCandidates(frac float64) []Candidate {
	var out []Candidate
	for _, c := range a.Candidates {
		if c.EstCost < a.Default.EstCost*(1-frac) {
			out = append(out, c)
		}
	}
	return out
}

// LowCostHighRuntime reports whether the job sits in Figure 5's top-left
// corner: the optimizer expected it to be fast (estimated cost below
// costCeil) but it ran long (runtime above runtimeFloor seconds) — heuristic
// (2) of §6.1.
func (a *Analysis) LowCostHighRuntime(costCeil, runtimeFloor float64) bool {
	return a.Default.EstCost < costCeil && a.Default.Metrics.RuntimeSec > runtimeFloor
}
