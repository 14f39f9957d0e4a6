package main

import (
	"bytes"
	"fmt"
	"time"

	"steerq/internal/bundle"
	"steerq/internal/obs"
	"steerq/internal/steering"
)

// traceBuild is one traced recomposition of BuildBundle.
type traceBuild struct {
	*rootSpan
	data          []byte
	recompileCPU  time.Duration
	recompileWall time.Duration
	footprint     steering.FootprintStats
	sched         steering.SchedStats
}

// recomposeBuild rebuilds BuildBundleCtx from its public parts —
// Grouper.Group, then Pipeline.Recompile and Pipeline.Execute (together
// Analyze) per group, MinimalConfig, Bundle.Encode — with a span around
// each call. It must produce the same bytes as BuildBundle.
func recomposeBuild(t *Tracer, e *discoverEnv, run string) (*traceBuild, error) {
	tb := &traceBuild{rootSpan: t.openRoot("discover.build", run)}
	defer tb.close()

	var groups []*steering.JobGroup
	var err error
	t.Call("steering.group", run, tb.id, func() { groups, err = steering.NewGrouper(e.h).Group(e.jobs) })
	if err != nil {
		return nil, err
	}
	rs := e.h.Opt.Rules
	b := &bundle.Bundle{Version: 1, CreatedUnix: 0, Default: rs.DefaultConfig()}
	if len(e.jobs) > 0 {
		b.Workload = e.jobs[0].Workload
	}
	for _, grp := range groups {
		job := grp.Jobs[0]
		en := bundle.Entry{Signature: grp.Signature, Config: rs.DefaultConfig(), Fallback: true}
		var a *steering.Analysis
		var aerr error
		t.CallProgram(e.reg, "steering.recompile", job.ID, tb.id, func() {
			c0, w0 := cpuTime(), now()
			a, aerr = e.p.Recompile(job)
			tb.recompileCPU += cpuTime() - c0
			tb.recompileWall += now().Sub(w0)
		})
		if aerr == nil {
			t.CallProgram(e.reg, "steering.execute", job.ID, tb.id, func() { e.p.Execute(a) })
			tb.footprint.Add(a.Footprint)
			tb.sched.Add(a.Sched)
			t.Call("steering.minimal", job.ID, tb.id, func() {
				if cfg, ok := steering.MinimalConfig(a, rs); ok {
					en.Config, en.Fallback = cfg, false
				}
			})
		}
		b.Entries = append(b.Entries, en)
	}
	t.Call("bundle.encode", run, tb.id, func() { tb.data, err = b.Encode() })
	return tb, err
}

// traceDiscover is the traced discover run: untraced BuildBundle (after a
// warm-up build), the traced recomposition at the same worker count (the per-layer figures and
// the tracing overhead), and a traced recomposition at Workers=1. Both
// recompositions must be byte-identical to the untraced bundle.
func traceDiscover(o runOpts, ops *tally) (map[string]float64, error) {
	t := NewTracer()
	var e *discoverEnv
	t.Call("workload.day", "day0", 0, func() { e = discoverSetup(runSeed(o.seed, "discover", 0)) })

	// The first build of a process also grows its heap; the untraced
	// baseline of the overhead is a second, fresh build.
	if _, _, _, _, _, err := e.build(); err != nil {
		return nil, fmt.Errorf("warm-up build: %w", err)
	}
	_, want, _, untracedWall, _, err := newDiscoverEnv(e.wl, e.jobs, e.seed, workers).build()
	if err != nil {
		return nil, fmt.Errorf("untraced build: %w", err)
	}
	traced := newDiscoverEnv(e.wl, e.jobs, e.seed, workers)
	tb, err := recomposeBuild(t, traced, "build-w2")
	if err != nil {
		return nil, fmt.Errorf("traced build: %w", err)
	}
	serial, err := recomposeBuild(NewTracer(), newDiscoverEnv(e.wl, e.jobs, e.seed, 1), "build-w1")
	if err != nil {
		return nil, fmt.Errorf("traced Workers=1 build: %w", err)
	}
	for _, c := range []struct {
		name string
		got  []byte
	}{{"Workers=2", tb.data}, {"Workers=1", serial.data}} {
		for range e.jobs {
			ops.check(bytes.Equal(c.got, want), "traced %s recomposition differs from BuildBundle (%d vs %d bytes)", c.name, len(c.got), len(want))
		}
	}

	spans := t.Spans()
	att := Attribute(spans, tb.id)
	if err := att.Check(); err != nil {
		ops.check(false, "%v", err)
	}
	dayDur, _ := spanTotal(spans, "workload.day")
	group, _ := spanTotal(spans, "steering.group")
	recompile, _ := spanTotal(spans, "steering.recompile")
	execute, _ := spanTotal(spans, "steering.execute")
	encode, _ := spanTotal(spans, "bundle.encode")
	snap := traced.reg.Snapshot()
	cache := traced.p.Cache.Stats()
	m := map[string]float64{
		"workload.day_ms":                 ms(dayDur),
		"steering.group_s":                group.Seconds(),
		"steering.recompile_s":            recompile.Seconds(),
		"steering.execute_s":              execute.Seconds(),
		"steering.span_search_s":          att.layerSeconds("pipeline.span_search"),
		"steering.recompile_core_util":    tb.recompileCPU.Seconds() / (tb.recompileWall.Seconds() * workers),
		"steering.candidates":             float64(tb.footprint.Candidates),
		"steering.compiles":               float64(tb.footprint.Compiled),
		"steering.compiles_avoided":       float64(tb.footprint.Avoided),
		"steering.cache_hit_rate":         cache.HitRate(),
		"steering.cache_probes_per_entry": ratio(float64(cache.Hits+cache.Misses), float64(cache.Entries)),
		"par.items":                       float64(tb.sched.Items),
		"par.steals":                      float64(tb.sched.Steals),
		"par.merges":                      float64(tb.sched.Merges),
		"abtest.compile_s":                att.layerSeconds("abtest.compile"),
		"abtest.exec_s":                   att.layerSeconds("abtest.exec"),
		"bundle.encode_ms":                ms(encode),
		"bundle.bytes":                    float64(len(tb.data)),
		"go.gc_cpu_frac":                  tb.goBefore.gcCPUFrac(tb.goAfter),
		"go.alloc_mb_per_job":             tb.goBefore.allocMB(tb.goAfter) / float64(len(e.jobs)),
		"trace.overhead_s":                (tb.wall - untracedWall).Seconds(),
		"trace.unattributed_frac":         att.Unattributed.Seconds() / att.Wall.Seconds(),
	}
	addRegistryLayers(m, snap)
	printAttribution(att)
	section("discover traced: untraced build %.3fs, traced %.3fs, Workers=1 traced %.3fs", untracedWall.Seconds(), tb.wall.Seconds(), serial.wall.Seconds())
	return m, nil
}

// addRegistryLayers reads the cascades and exec counters the program
// keeps in its registry.
func addRegistryLayers(m map[string]float64, snap obs.Snapshot) {
	for _, c := range snap.Counters {
		switch c.Name {
		case "steerq_cascades_compiles_total":
			m["cascades.compiles"] += float64(c.Value)
		case "steerq_cascades_rule_firings_total":
			m["cascades.rule_firings"] += float64(c.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "steerq_cascades_memo_exprs" && h.Count > 0 {
			m["cascades.memo_exprs_mean"] = h.Sum / float64(h.Count)
		}
	}
	for _, s := range snap.Spans {
		if s.Stage == "abtest.exec" {
			m["exec.trials"]++
		}
	}
}

// printAttribution prints the layer self times of one traced root and the
// remainder no layer covers.
func printAttribution(a Attribution) {
	section("attribution of %s (%.3fs wall):", a.Root, a.Wall.Seconds())
	for _, name := range sortedKeys(a.Layer) {
		report(name, a.Layer[name].Seconds(), "s", fmt.Sprintf("%.1f%%", 100*a.Layer[name].Seconds()/a.Wall.Seconds()))
	}
	report("unattributed", a.Unattributed.Seconds(), "s", fmt.Sprintf("%.2f%%, self time of %s; tolerance %.0f%%",
		100*a.Unattributed.Seconds()/a.Wall.Seconds(), a.Root, 100*attributionTolerance))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
