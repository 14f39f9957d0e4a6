// Command perfbench is steerq's benchmark. It drives the program only
// through its public entry points and prints, as the last line of standard
// output, one JSON object with the run's correctness, operation counts and
// metrics. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload discover|learn|serve --seed N --seconds S --trace 0|1
//
// run.sh builds it from source into .bench_build/. The seed is the
// workload seed: the same seed gives the same inputs. Every workload runs
// in one process with GOMAXPROCS = pipeline Workers = senders = 2, and the
// benchmark refuses to start on fewer cores.
//
// # Workloads, and why each was chosen
//
// discover: the production daily job. One full day of workload A (950 jobs
// at scale 0.01) through steering.Pipeline.BuildBundle, wired as `steerq
// bundle` wires it (a fresh CompileCache, one obs.Registry on optimizer,
// harness, pipeline and cache, M=300, k=10). It is compile-bound (a
// profile put cascades at about 59% of CPU, exec 17%, grouping 5%, GC 13%)
// and never touches nn or serve.
//
// learn: the §7 learning run (experiments.Runner.Learning) on workload B
// over a 4-day window, keeping the 2 largest qualifying groups. nn training
// and exec dominate and cascades is a few percent, so nn and exec changes
// show here and a cascades change should barely move.
//
// Both repeat their build or learning run, each set up from scratch, over
// several generated populations, because one population's work depends on
// its template and group sizes (a learning run took 3.6 to 10.2 s over
// four seeds). discover builds workloads derived from the seed and the
// iteration's index (runSeed) for as long as the window has room. learn
// works through a fixed corpus of one population per 6 s of window, in an
// order set by the seed (learnCorpus): about five learning runs fit in a
// window, too few to average seed-drawn populations down to a steady
// figure.
//
// serve: a serve.Server on loopback and an in-process serve.SDK, loaded
// from one bundle: the real entries of a build over the first 120 jobs of
// A day 0, padded with seeded synthetic signatures to 13,000 entries
// (845 KB). 13K is the paper's Table 1 daily unique-signature count for A
// and crosses the table's 4,096-entry shard threshold. The mix is Zipf
// s=1.1 over entries plus 10% unknown signatures. Hot reloads (POST
// /v1/bundles of a re-versioned bundle) are interleaved with the steer
// requests and sent by the same two senders, so reloads are writes beside
// reads: work moved from lookup into table build shows. It is the only
// workload that exercises bundle decode, the table, the SDK, the handler
// and the network.
//
// No recurring, warm-cache workload is included: a 3-day Zipf run with one
// shared cache hit 460 times in 226,663 probes (0.2%), so it would
// exercise nothing discover does not; steering.cache_hit_rate on discover
// carries that fact.
//
// # End-to-end metrics (untraced runs)
//
// Every workload reports the same three, because the result line must
// carry every metric BENCHMARK.json declares. A "job" is what a user of
// the workload asks for.
//
//   - setup_s: workload generation (scopeql parse and bind included) and
//     harness build; for serve also the bundle build and the daemon coming
//     up ready. The median of the set-ups in the run.
//   - jobs_per_core_s: jobs ÷ process user+sys CPU, ROADMAP's "analyzed
//     jobs per core-second". discover: the day's jobs over BuildBundle's
//     CPU, the upper quartile over the builds. learn: jobs learned from
//     over Runner.Learning's CPU, totalled over the runs. serve: steer
//     requests over the CPU of two back-to-back keep-alive connections on
//     loopback (client and daemon in one process) with a hot reload after
//     every 400 requests, so the reload path's cost is in the figure.
//   - peak_rss_mb: peak resident memory of the run.
//
// Every timed set-up, build, learning run and closed-loop part starts
// after a forced GC, so it pays for its own garbage and not for the
// previous iteration's.
//
// Wall-clock throughput, jobs_per_s, is printed for every workload but not
// gated. Other tenants of the shared 2-core machine take cores for minutes
// at a time: a discover build of the same size took 1.37 s in one run and
// 3.88 s in another, and over ten seeds the spread of wall-clock
// throughput reached 0.22 (discover) and 0.28 (learn) of the median in
// the batches such an episode hit, past any bound a gate may hold. CPU
// time shrugs off being descheduled. It still swells when a neighbour
// shares the core, and discover therefore reports the upper quartile of
// its builds: the faster builds track the program rather than the
// neighbours.
//
// failed_frac is carried by the result's attempted and failed counts: a
// gated metric may never be 0. Operations are jobs (discover), test jobs
// and learning runs (learn), and requests, reloads and lookups (serve).
//
// Also printed by name ahead of the result, and not gated because their
// spread over seeds or over time is too wide: steered_gain_pct (day 1 of A
// under the day-0 bundle; -88% to +36% over thirty seeds),
// learned_gain_pct (-1.4% to 41% over twenty windows of seed-drawn
// populations; one value on the fixed corpus), build_s and learn_s (wall
// per run), sdk_lookups_per_s and sdk_lookups_per_core_s (2 goroutines,
// closed loop), and the open-loop figures: steer_p50_us and steer_p99_us
// (a fixed 8,000 req/s with reloads, timed from the intended send instant;
// p99 2.6 ms to 83 ms over twenty-three runs), reload_p90_ms,
// send_lag_p99_us, and steer_max_qps (a fixed ladder of rates, each 0.5 s,
// passing at p99 ≤ 5 ms with no growing backlog and the generator within
// the limit). The limit is 5 ms, not 500 µs: the generator's own send lag
// reaches milliseconds at p99 even at 1K req/s on this machine, so at
// 500 µs every step is generator-bound; the open loop's p99 is the
// generator's lag plus the server's time.
//
// # Per-layer metrics (traced run) and what each should move
//
// The traced run records a span (name, start, end, parent, run id) around
// each public call, in memory, and reads the program's own pipeline.* and
// abtest.* spans and counters from the registry at the end. Composite
// calls are recomposed from their public parts: BuildBundle as
// Grouper.Group → Recompile and Execute per group → MinimalConfig →
// Bundle.Encode, Runner.Learning as Group → default-trial filter →
// CandidateArms → Collect → Train → Evaluate. Self time is a span's
// duration minus what its children cover; the layer self times must sum to
// within 5% of the traced root's wall (trace.unattributed_frac), and
// trace.overhead_s is traced minus untraced wall of the same work. A layer
// a workload does not exercise reports 0.
//
//   - workload.day_ms → setup_s, all workloads.
//   - steering.group_s, recompile_s, execute_s, span_search_s →
//     jobs_per_core_s on discover.
//   - steering.recompile_core_util (CPU ÷ wall×workers during Recompile),
//     par.items, steals, merges (Analysis.Sched) → the printed jobs_per_s
//     on discover: parallelism moves wall time, not CPU per job.
//   - steering.candidates, compiles, compiles_avoided (Analysis.Footprint),
//     cache_hit_rate, cache_probes_per_entry (CompileCache.Stats) →
//     jobs_per_core_s on discover.
//   - cascades.compiles, rule_firings, memo_exprs_mean → jobs_per_core_s on
//     discover; little on learn.
//   - abtest.compile_s, abtest.exec_s, exec.trials → jobs_per_core_s on
//     discover and learn.
//   - learning.arms_s, collect_s, train_s, evaluate_s, train_samples →
//     jobs_per_core_s on learn; none on discover.
//   - bundle.encode_ms → jobs_per_core_s on discover; bundle.bytes and
//     decode_ms, serve.table_build_ms → jobs_per_core_s on serve, through
//     its reloads.
//   - serve.handler_us, handler_allocs (Handler() through httptest, no
//     socket) and net.roundtrip_us (round trip − handler time) →
//     jobs_per_core_s on serve.
//   - serve.table_lookup_ns, sdk_lookup_ns and sdk_lookup_bare_ns (the gap
//     is instrumentation) → the printed sdk_lookups_per_core_s; a few
//     hundred ns in a request of tens of µs barely moves jobs_per_core_s.
//   - serve.hit_frac, fallback_frac, default_frac → context for every serve
//     figure.
//   - loadgen.send_lag_p99_us → the validity of the open-loop figures.
//   - go.gc_cpu_frac, go.alloc_mb_per_job → jobs_per_core_s and
//     peak_rss_mb on discover and learn.
//
// # Correctness checked in every run
//
// discover: each bundle round-trips through bundle.Decode with the same
// checksum and bytes, and every group of the day (from an independent
// Grouper) has exactly one entry; the traced recompositions at Workers=2
// and Workers=1 are byte-identical to the untraced BuildBundle output.
// learn: no test job's learned or default runtime beats its best arm; the
// traced recomposition reproduces every test job's outcome and so the
// same learned_gain_pct. serve: every SDK and HTTP decision equals an
// independent map built from the bundle's entries (the default
// configuration for unknown signatures), every reload comes back live
// with its version, and a decision never carries a version not yet posted.
package main
