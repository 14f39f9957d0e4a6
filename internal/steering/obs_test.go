package steering_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/steering"
	"steerq/internal/xrand"
)

// obsAnalyze runs one fully instrumented, fault-injected analysis at the
// given worker count on a frozen clock and returns the registry's JSON and
// text serializations.
func obsAnalyze(t *testing.T, workers int) (snapJSON, snapText string) {
	t.Helper()
	reg := obs.NewWithClock(obs.FrozenClock())
	cat := steerCatalog()
	h := steerHarness(cat)
	h.Executor.CheckPlans = true
	in := faults.NewInjector(faults.DefaultPlan(1337))
	h.SetFaults(in)
	h.SetObs(reg)
	h.Opt.SetObs(reg)
	in.Publish(reg)
	cache := steering.NewCompileCache()
	cache.SetObs(reg, "workload", "test")
	p := steering.NewPipeline(h, xrand.New(11).Derive("fault-test"))
	p.MaxCandidates = 40
	p.ExecutePerJob = 5
	p.Workers = workers
	p.Cache = cache
	p.Obs = reg
	job := steerJob(t, cat)
	fingerprintJob(t, job)
	if _, err := p.Analyze(job); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	snap := reg.Snapshot()
	data, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Text(&buf); err != nil {
		t.Fatal(err)
	}
	return string(data), buf.String()
}

// TestObsSnapshotWorkerDeterminism is PR 5's extension of the PR 4
// metamorphic suite: under a frozen clock, the full observability state of a
// faulted analysis — every counter, histogram bucket, gauge, span path and
// outcome — serializes byte-identically at any worker count, in both the JSON
// snapshot and the text exposition. Run under -race this also proves the
// sharded histogram and span recording are data-race free.
//
// STEERQ_VCLOCK is set the way the deterministic CI run sets it: the
// scheduler's per-worker attribution is the one schedule-dependent corner of
// the registry, and the virtual clock is the switch that canonicalizes it
// (like it zeroes span durations), so the frozen-clock goldens cover it too.
func TestObsSnapshotWorkerDeterminism(t *testing.T) {
	t.Setenv(obs.VClockEnv, "1")
	baseJSON, baseText := obsAnalyze(t, 1)
	for _, want := range []string{
		"steerq_pipeline_candidates_total",
		"steerq_cascades_rule_firings_total",
		"steerq_robustness_retries_total",
		"steerq_par_items_total",
		"steerq_par_queue_depth",
		"steerq_pipeline_merge_seconds",
		"steerq_pipeline_merges_total",
		"pipeline.recompile",
		"abtest.compile",
	} {
		if !strings.Contains(baseJSON, want) {
			t.Fatalf("instrumentation missing %q; determinism test is vacuous:\n%s", want, baseJSON)
		}
	}
	for _, workers := range []int{2, 8} {
		gotJSON, gotText := obsAnalyze(t, workers)
		if gotJSON != baseJSON {
			t.Errorf("workers=%d: JSON snapshot differs from workers=1\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, baseJSON, workers, gotJSON)
		}
		if gotText != baseText {
			t.Errorf("workers=%d: text exposition differs from workers=1\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, baseText, workers, gotText)
		}
	}
}

// TestCompileCacheSetObsCarriesCounts: re-pointing the cache's counters into
// a registry must not lose events already counted, and the registry's view
// must track subsequent activity.
func TestCompileCacheSetObsCarriesCounts(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	p := steering.NewPipeline(h, xrand.New(3).Derive("cache-obs"))
	p.MaxCandidates = 20
	p.Workers = 2
	p.Cache = steering.NewCompileCache()
	job := steerJob(t, cat)
	fingerprintJob(t, job)
	if _, err := p.Recompile(job); err != nil {
		t.Fatal(err)
	}
	before := p.Cache.Stats()
	if before.Misses == 0 {
		t.Fatal("first pass recorded no misses; test is vacuous")
	}

	reg := obs.New()
	p.Cache.SetObs(reg, "workload", "test")
	snap := reg.Snapshot()
	vals := map[string]uint64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["steerq_cache_hits_total"] != before.Hits || vals["steerq_cache_misses_total"] != before.Misses {
		t.Fatalf("SetObs dropped prior counts: registry %v, cache %+v", vals, before)
	}

	// A second pass over the same job hits the cache; both views must agree.
	if _, err := p.Recompile(job); err != nil {
		t.Fatal(err)
	}
	after := p.Cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatal("second pass recorded no hits; test is vacuous")
	}
	snap = reg.Snapshot()
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["steerq_cache_hits_total"] != after.Hits || vals["steerq_cache_misses_total"] != after.Misses {
		t.Fatalf("registry view diverged after SetObs: registry %v, cache %+v", vals, after)
	}
	var entries float64
	for _, g := range snap.Gauges {
		if g.Name == "steerq_cache_entries" {
			entries = g.Value
		}
	}
	if int(entries) != after.Entries {
		t.Fatalf("entries gauge = %v, cache has %d", entries, after.Entries)
	}
}

// TestCompileCacheObsConcurrent hammers an obs-wired cache from many
// goroutines; under -race this is the regression test for the migration from
// bespoke atomic fields to obs counters.
func TestCompileCacheObsConcurrent(t *testing.T) {
	fp := faults.DefaultPlan(77)
	cache := steering.NewCompileCache()
	cache.SetObs(obs.New(), "workload", "test")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := analyzeFaulty(t, 2, cache, fp)
			if a == nil {
				t.Error("analysis returned nil")
			}
		}()
	}
	wg.Wait()
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("hammer recorded no cache traffic; test is vacuous")
	}
}
