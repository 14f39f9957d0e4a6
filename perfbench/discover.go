package main

import (
	"bytes"
	"fmt"
	"time"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/cost"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/serve"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// The daily bundle build's parameters, as `steerq bundle` defaults them.
const (
	discoverScale = 0.01 // 950 jobs a day for workload A
	discoverM     = 300
	discoverK     = 10
)

// discoverEnv is one bundle build wired as `steerq bundle` wires it: a
// fresh compile cache and one registry on the optimizer, harness, pipeline
// and cache.
type discoverEnv struct {
	seed uint64
	wl   *workload.Workload
	jobs []*workload.Job
	reg  *obs.Registry
	h    *abtest.Harness
	p    *steering.Pipeline
}

func newDiscoverEnv(wl *workload.Workload, jobs []*workload.Job, seed uint64, w int) *discoverEnv {
	reg := obs.New()
	opt := rules.NewOptimizer(cost.NewEstimated(wl.Cat))
	opt.SetObs(reg)
	h := abtest.New(wl.Cat, opt, seed+1)
	h.SetObs(reg)
	p := steering.NewPipeline(h, xrand.New(seed).Derive("cli-bundle"))
	p.MaxCandidates = discoverM
	p.ExecutePerJob = discoverK
	p.Workers = w
	p.Cache = steering.NewCompileCache()
	p.Cache.SetObs(reg, "workload", "A")
	p.Obs = reg
	return &discoverEnv{seed: seed, wl: wl, jobs: jobs, reg: reg, h: h, p: p}
}

// discoverSetup generates workload A from the seed and its day-0 jobs
// (scopeql parse and bind included), then wires a build.
func discoverSetup(seed uint64) *discoverEnv {
	wl := workload.Generate(workload.ProfileA(discoverScale, seed))
	return newDiscoverEnv(wl, wl.Day(0), seed, workers)
}

// build runs BuildBundle and returns the bundle, its encoding, and the
// build's wall and CPU time.
func (e *discoverEnv) build() (*bundle.Bundle, []byte, steering.BundleReport, time.Duration, time.Duration, error) {
	c0, t0 := cpuTime(), now()
	b, rep, err := e.p.BuildBundle(e.jobs, 1, 0)
	wall, cpu := now().Sub(t0), cpuTime()-c0
	if err != nil {
		return nil, nil, rep, wall, cpu, err
	}
	data, err := b.Encode()
	return b, data, rep, wall, cpu, err
}

// checkBundle is the discover oracle: the encoding round-trips through
// bundle.Decode with the same checksum and bytes, and every group of the
// day, found by an independent Grouper, has exactly one entry. One
// operation per job: a job fails when its group has no entry, and every
// job fails when the artifact does not round-trip.
func checkBundle(e *discoverEnv, b *bundle.Bundle, data []byte, ops *tally) {
	d, err := bundle.Decode(data)
	if err != nil || d.Checksum() != b.Checksum() {
		for range e.jobs {
			ops.check(false, "discover day bundle does not round-trip: %v", err)
		}
		return
	}
	again, err := d.Encode()
	if err != nil || !bytes.Equal(again, data) {
		for range e.jobs {
			ops.check(false, "discover bundle re-encodes differently: %v", err)
		}
		return
	}
	entries := make(map[bitvec.Key]int, len(d.Entries))
	for _, en := range d.Entries {
		entries[en.Signature.Key()]++
	}
	g := steering.NewGrouper(e.h)
	groups, err := g.Group(e.jobs)
	if err != nil {
		for range e.jobs {
			ops.check(false, "discover oracle grouping failed: %v", err)
		}
		return
	}
	for _, grp := range groups {
		n := entries[grp.GroupKey()]
		delete(entries, grp.GroupKey())
		for _, j := range grp.Jobs {
			ops.check(n == 1, "job %s: its group has %d bundle entries, want 1", j.ID, n)
		}
	}
	for k := range entries {
		ops.check(false, "bundle entry %s matches no group of the day", bitvec.FromKey(k).Hex())
	}
}

// steeredGain is the simulated runtime saved, as a share of the day's
// default runtime, when that day's jobs run under bundle b through
// RunSteered instead of the default configuration (§6.4's extrapolation,
// through the serving SDK). It also returns how many jobs were steered.
func steeredGain(e *discoverEnv, b *bundle.Bundle, day int) (float64, int, error) {
	sdk := serve.NewSDK(nil)
	if err := sdk.Load(b); err != nil {
		return 0, 0, err
	}
	h := e.h
	h.Steer = sdk
	var def, steered float64
	n := 0
	for _, j := range e.wl.Day(day) {
		tag := j.ID + "/extrapolate"
		st, moved := h.RunSteered(j.Root, j.Day, tag)
		if st.Err != nil {
			continue
		}
		if !moved {
			def += st.Metrics.RuntimeSec
			steered += st.Metrics.RuntimeSec
			continue
		}
		dt := h.RunConfig(j.Root, h.Opt.Rules.DefaultConfig(), j.Day, tag)
		if dt.Err != nil {
			continue
		}
		def += dt.Metrics.RuntimeSec
		steered += st.Metrics.RuntimeSec
		n++
	}
	if def == 0 {
		return 0, n, nil
	}
	return 100 * (def - steered) / def, n, nil
}

// runDiscover is the daily bundle build: day 0 of successive derived
// workloads, each set up and built from scratch, until the window is used
// up.
func runDiscover(o runOpts, ops *tally) (map[string]float64, error) {
	if o.trace {
		return traceDiscover(o, ops)
	}
	var setups, jps, jpcs, walls []float64
	var first *discoverEnv
	var firstBundle *bundle.Bundle
	start := now()
	for i := 0; another(now().Sub(start), i, o.seconds); i++ {
		settle()
		t0 := now()
		e := discoverSetup(runSeed(o.seed, "discover", i))
		setups = append(setups, now().Sub(t0).Seconds())
		settle()
		b, data, rep, wall, cpu, err := e.build()
		if err != nil {
			ops.check(false, "discover build %d: %v", i, err)
			continue
		}
		n := float64(len(e.jobs))
		walls = append(walls, wall.Seconds())
		jps = append(jps, n/wall.Seconds())
		jpcs = append(jpcs, n/cpu.Seconds())
		fmt.Printf("discover build %d: %d jobs, %d groups (%d steered, %d fallback), build %.3fs wall %.3fs cpu, checksum %016x\n",
			i, rep.Jobs, rep.Groups, rep.Steered, rep.Fallbacks, wall.Seconds(), cpu.Seconds(), b.Checksum())
		checkBundle(e, b, data, ops)
		if first == nil {
			first, firstBundle = e, b
		}
	}
	if first == nil {
		return nil, fmt.Errorf("no bundle build succeeded")
	}
	gain, moved, err := steeredGain(first, firstBundle, 1)
	if err != nil {
		return nil, fmt.Errorf("steered gain: %w", err)
	}
	m := map[string]float64{
		"setup_s":         median(setups),
		"jobs_per_core_s": upperQuartile(jpcs),
		"peak_rss_mb":     peakRSSMB(),
	}
	section("discover: %d builds, seed %d", len(walls), o.seed)
	report("build_s", median(walls), "s", "median BuildBundle wall")
	report("jobs_per_s", upperQuartile(jps), "jobs/s", fmt.Sprintf("upper quartile over the builds; median %.6g", median(jps)))
	report("jobs_per_core_s_median", median(jpcs), "jobs/core-s", "median over the builds")
	report("steered_gain_pct", gain, "%", fmt.Sprintf("day 1 under the day-0 bundle of build 0, %d jobs steered", moved))
	report("failed_frac", ops.frac(), "", "")
	return m, nil
}
