package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/experiments"
	"steerq/internal/loadgen"
	"steerq/internal/obs"
	"steerq/internal/serve"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// The serving workload's bundle and traffic.
const (
	// serveEntries is the paper's Table 1 daily unique-signature count for
	// workload A; it is also above the table's 4,096-entry shard threshold.
	serveEntries   = 13000
	serveBuildJobs = 120 // jobs of A day 0 whose real entries seed the bundle
	serveZipf      = 1.1
	serveMissFrac  = 0.1
	serveMissSigs  = 256
	// serveSetups is how many times a run sets the daemon up; setup_s is
	// their median.
	serveSetups = 3
)

// Load settings. The generator's own wake-up lag on a 2-core machine
// reaches milliseconds at p99 even at 1K req/s (Go's timers round a
// sub-millisecond sleep up to the next poll), so the latency limit sits
// above it: at 500 µs every step would be generator-bound.
const (
	latencyLimit = 5 * time.Millisecond
	// nominalRate is the fixed offered rate of the open-loop mixed leg.
	nominalRate = 8000.0
	// reloadEvery spaces the open-loop mixed leg's hot reloads.
	reloadEvery = 40 * time.Millisecond
	// reloadRatio puts one reload after every reloadRatio steer requests
	// of the closed loop: about one per 30–40 ms at its rate.
	reloadRatio = 400
	// legPart bounds one part of a leg; a part's reload payloads are
	// encoded before it starts, which bounds the memory they hold.
	legPart = time.Second
	// closedPart is the arrivals a closed-loop part is given: more than a
	// legPart takes at the rates seen on 2 cores, few enough that the
	// part's reload payloads stay near 35 MB.
	closedPart = 16384
	ladderStep = 500 * time.Millisecond
)

// ladderRates are the fixed offered rates of the capacity ladder, req/s.
var ladderRates = []float64{2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000, 22000, 24000, 27000, 30000, 34000, 38000}

// serveEnv is one daemon with its bundle and the independent oracle.
type serveEnv struct {
	b       *bundle.Bundle
	data    []byte
	oracle  map[bitvec.Key]bundle.Entry
	sigs    []bitvec.Vector // the bundle's signatures, in entry order
	miss    []bitvec.Vector // signatures guaranteed absent from it
	reg     *obs.Registry
	srv     *serve.Server
	base    string
	client  *http.Client
	version uint64 // the highest version posted so far
}

// serveBundle builds the serving bundle: the real entries of a bundle build
// over the first serveBuildJobs jobs of A day 0, padded with seeded
// synthetic signatures to serveEntries entries. Padding copies the
// decisions of real entries, so hit and fallback keep their real mix.
func serveBundle(seed uint64) (*bundle.Bundle, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	r := experiments.NewRunner(cfg)
	jobs := r.Day("A", 0)
	if len(jobs) > serveBuildJobs {
		jobs = jobs[:serveBuildJobs]
	}
	b, _, err := r.Pipeline("A").BuildBundle(jobs, 1, 0)
	if err != nil {
		return nil, err
	}
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("bundle build produced no entries")
	}
	taken := make(map[bitvec.Key]bool, serveEntries)
	for _, e := range b.Entries {
		taken[e.Signature.Key()] = true
	}
	real := len(b.Entries)
	rnd := xrand.New(seed).Derive("perfbench", "pad")
	for i := 0; len(b.Entries) < serveEntries; i++ {
		var sig bitvec.Vector
		for j := 0; j < 12; j++ {
			sig.Set(rnd.Intn(bitvec.Width))
		}
		if taken[sig.Key()] {
			continue
		}
		taken[sig.Key()] = true
		src := b.Entries[i%real]
		b.Entries = append(b.Entries, bundle.Entry{Signature: sig, Config: src.Config, Fallback: src.Fallback})
	}
	return b, nil
}

// serveSetup generates the bundle and brings a daemon up on loopback, ready.
func serveSetup(seed uint64) (*serveEnv, error) {
	b, err := serveBundle(seed)
	if err != nil {
		return nil, err
	}
	data, err := b.Encode()
	if err != nil {
		return nil, err
	}
	e := &serveEnv{b: b, data: data, oracle: make(map[bitvec.Key]bundle.Entry, len(b.Entries)), reg: obs.New(), version: b.Version}
	for _, en := range b.Entries {
		e.oracle[en.Signature.Key()] = en
		e.sigs = append(e.sigs, en.Signature)
	}
	e.miss = loadgen.MissSignatures(seed, serveMissSigs, e.sigs)
	sdk := serve.NewSDK(e.reg)
	if err := sdk.LoadBytes(data); err != nil {
		return nil, err
	}
	e.srv = serve.NewServer(sdk, e.reg)
	if err := e.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	e.base = "http://" + e.srv.Addr()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	if err := serve.WaitReady(e.base, 10*time.Second); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	_ = e.srv.Close() // the run is over; nothing is in flight
}

// expect is the oracle's decision for sig: the entry's configuration, or
// the bundle default for an unknown signature.
func (e *serveEnv) expect(sig bitvec.Vector) (bitvec.Vector, serve.Kind) {
	en, ok := e.oracle[sig.Key()]
	switch {
	case !ok:
		return e.b.Default, serve.KindDefault
	case en.Fallback:
		return en.Config, serve.KindFallback
	default:
		return en.Config, serve.KindHit
	}
}

// expectAll resolves the oracle's decision for every signature of seq up
// front, so closed loops check each lookup with a slice read.
func (e *serveEnv) expectAll(seq []bitvec.Vector) ([]bitvec.Vector, []serve.Kind) {
	cfgs := make([]bitvec.Vector, len(seq))
	kinds := make([]serve.Kind, len(seq))
	for i, s := range seq {
		cfgs[i], kinds[i] = e.expect(s)
	}
	return cfgs, kinds
}

// mix is the request mix: Zipf s=1.1 over the bundle's entries plus a
// serveMissFrac share of unknown signatures.
func (e *serveEnv) mix() loadgen.Mix {
	return loadgen.Mix{Signatures: e.sigs, Weights: workload.ZipfProbs(len(e.sigs), serveZipf), Miss: e.miss, MissFrac: serveMissFrac}
}

// schedule is an open-loop Poisson arrival schedule over the mix.
func (e *serveEnv) schedule(seed uint64, rate float64, d time.Duration) ([]loadgen.Arrival, error) {
	s, err := loadgen.Build(seed, loadgen.Profile{QPS: rate, Duration: d}, e.mix())
	if err != nil {
		return nil, err
	}
	return s.Arrivals, nil
}

// sequence is a request-mix sequence of about n signatures for closed loops.
func (e *serveEnv) sequence(seed uint64, n int) ([]bitvec.Vector, error) {
	s, err := e.schedule(seed, float64(n), time.Second)
	if err != nil {
		return nil, err
	}
	out := make([]bitvec.Vector, len(s))
	for i, a := range s {
		out[i] = a.Sig
	}
	return out, nil
}

// reload returns the arrival of the next hot reload: the bundle re-encoded
// under the next version.
func (e *serveEnv) reload(at time.Duration) (arrival, error) {
	e.version++
	nb := *e.b
	nb.Version = e.version
	payload, err := nb.Encode()
	return arrival{at: at, payload: payload, version: e.version}, err
}

// arrival is one scheduled operation of a leg: a steer request or, when
// payload is set, a hot reload posting that bundle.
type arrival struct {
	at      time.Duration
	sig     bitvec.Vector
	payload []byte
	version uint64
}

// legResult is one leg's record.
type legResult struct {
	rate      float64
	steer     Latencies // from the intended send instant; failures are misses
	firstQ    Latencies // steer latency of the leg's first quarter of arrivals
	lastQ     Latencies // and of its last quarter
	lag       Latencies // actual − intended send time, every operation
	reload    Latencies // POST /v1/bundles send to 200
	completed int
	kinds     [3]int
	wall, cpu time.Duration
}

func (r *legResult) merge(o *legResult) {
	r.steer.Merge(&o.steer)
	r.firstQ.Merge(&o.firstQ)
	r.lastQ.Merge(&o.lastQ)
	r.lag.Merge(&o.lag)
	r.reload.Merge(&o.reload)
	r.completed += o.completed
	for k := range o.kinds {
		r.kinds[k] += o.kinds[k]
	}
	r.wall += o.wall
	r.cpu += o.cpu
}

// runLeg replays arrivals in real time on `workers` senders that share one
// cursor, each holding one keep-alive connection; with every arrival at 0
// it is a closed loop. Senders stop taking arrivals after stopAfter (0 =
// never). Every steer decision is checked against the oracle, and every
// reload must come back 200 with its version live. Reloads are serialized
// so versions go live in order.
func (e *serveEnv) runLeg(arrivals []arrival, rate float64, stopAfter time.Duration, ops *tally) *legResult {
	var next atomic.Int64
	var mu sync.Mutex // guards res and ops while senders merge
	var reloadMu sync.Mutex
	res := &legResult{rate: rate}
	n := len(arrivals)
	maxVersion := e.version
	var wg sync.WaitGroup
	c0, start := cpuTime(), now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var loc legResult
			var fails []string
			target := loadgen.HTTPTarget{Base: e.base, Client: e.client}
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (stopAfter > 0 && now().Sub(start) >= stopAfter) {
					break
				}
				a := arrivals[i]
				intended := start.Add(a.at)
				if d := intended.Sub(now()); d > 0 {
					time.Sleep(d)
				}
				sent := now()
				loc.lag.Add(sent.Sub(intended))
				if a.payload != nil {
					reloadMu.Lock()
					err := e.postBundle(a.payload, a.version)
					done := now()
					reloadMu.Unlock()
					if err != nil {
						loc.reload.Miss()
						fails = append(fails, err.Error())
						continue
					}
					loc.reload.Add(done.Sub(sent))
					continue
				}
				d, err := target.Steer(a.sig)
				lat := now().Sub(intended)
				if err == nil {
					cfg, kind := e.expect(a.sig)
					if !d.Config.Equal(cfg) || d.Kind != kind || d.Version < 1 || d.Version > maxVersion {
						err = fmt.Errorf("decision %s/%s v%d, oracle %s/%s", d.Kind, d.Config.Hex(), d.Version, kind, cfg.Hex())
					}
				}
				var q *Latencies
				switch {
				case i < n/4:
					q = &loc.firstQ
				case i >= 3*n/4:
					q = &loc.lastQ
				}
				if err != nil {
					loc.steer.Miss()
					if q != nil {
						q.Miss()
					}
					fails = append(fails, fmt.Sprintf("steer %s: %v", a.sig.Hex(), err))
					continue
				}
				loc.steer.Add(lat)
				if q != nil {
					q.Add(lat)
				}
				loc.completed++
				loc.kinds[d.Kind]++
			}
			mu.Lock()
			defer mu.Unlock()
			res.merge(&loc)
			for _, f := range fails {
				ops.check(false, "%s", f)
			}
		}()
	}
	wg.Wait()
	res.wall, res.cpu = now().Sub(start), cpuTime()-c0
	ops.attempted += res.completed + res.reload.Count() - res.reload.misses
	return res
}

// postBundle hot-reloads one bundle and checks the daemon reports it live.
func (e *serveEnv) postBundle(payload []byte, version uint64) error {
	resp, err := e.client.Post(e.base+serve.PathBundles, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("reload v%d: %w", version, err)
	}
	defer resp.Body.Close()
	var info serve.BundleInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload v%d: status %d, %v", version, resp.StatusCode, err)
	}
	if info.Version != version || info.Entries != len(e.b.Entries) {
		return fmt.Errorf("reload v%d: daemon reports v%d with %d entries", version, info.Version, info.Entries)
	}
	return nil
}

// mixedLeg is the open-loop leg at nominalRate: steer requests with hot
// reloads of re-versioned bundles interleaved into the same schedule, sent
// by the same senders. It runs as legPart-long parts.
func (e *serveEnv) mixedLeg(seed uint64, d time.Duration, ops *tally) (*legResult, error) {
	res := &legResult{rate: nominalRate}
	for p := 0; time.Duration(p)*legPart < d; p++ {
		steer, err := e.schedule(seed+uint64(p), nominalRate, legPart)
		if err != nil {
			return nil, err
		}
		var arrivals []arrival
		next := reloadEvery
		for _, a := range steer {
			for ; next <= a.At; next += reloadEvery {
				r, err := e.reload(next)
				if err != nil {
					return nil, err
				}
				arrivals = append(arrivals, r)
			}
			arrivals = append(arrivals, arrival{at: a.At, sig: a.Sig})
		}
		res.merge(e.runLeg(arrivals, nominalRate, 0, ops))
	}
	return res, nil
}

// closedLoop is the saturation leg: both senders back to back over the
// request mix, with a hot reload after every reloadRatio requests, in
// legPart-long parts until d is used up.
func (e *serveEnv) closedLoop(seq []bitvec.Vector, d time.Duration, ops *tally) (*legResult, error) {
	res := &legResult{}
	k := 0
	for res.wall < d {
		var arrivals []arrival
		for len(arrivals) < closedPart {
			if k%reloadRatio == reloadRatio-1 {
				r, err := e.reload(0)
				if err != nil {
					return nil, err
				}
				arrivals = append(arrivals, r)
			}
			arrivals = append(arrivals, arrival{sig: seq[k%len(seq)]})
			k++
		}
		settle()
		res.merge(e.runLeg(arrivals, 0, legPart, ops))
	}
	return res, nil
}

// stepVerdict judges one ladder step.
type stepVerdict struct {
	rate, achieved float64
	p99, lagP99    Quantile
	generatorBound bool // the generator's own send lag broke the limit
	backlog        bool // latency grew from the first quarter to the last
	pass           bool
}

// judgeStep applies the ladder's rule: a step passes when its steer p99
// (failures ranking as misses) is within the limit, its latency did not
// grow over the step, and the generator kept to its schedule. A step whose
// send-lag p99 breaks the limit is generator-bound: it measured the
// generator, so it neither passes nor fails the server.
func judgeStep(r *legResult, limit time.Duration) stepVerdict {
	v := stepVerdict{rate: r.rate, p99: r.steer.Quantile(0.99), lagP99: r.lag.Quantile(0.99)}
	if r.wall > 0 {
		v.achieved = float64(r.completed) / r.wall.Seconds()
	}
	v.generatorBound = v.lagP99.Miss || v.lagP99.Value > limit
	first, last := r.firstQ.Quantile(0.5), r.lastQ.Quantile(0.5)
	v.backlog = last.Miss || (!first.Miss && last.Value-first.Value > limit/4)
	v.pass = !v.generatorBound && !v.backlog && !v.p99.Miss && v.p99.Value <= limit
	return v
}

// maxQPS is the achieved rate of the highest passing step, and false when
// no step passed.
func maxQPS(steps []stepVerdict) (float64, bool) {
	best, top, ok := 0.0, 0.0, false
	for _, s := range steps {
		if s.pass && s.rate > top {
			top, best, ok = s.rate, s.achieved, true
		}
	}
	return best, ok
}

// ladder offers each rate of ladderRates for ladderStep, reads only, and
// stops after two consecutive steps fail.
func (e *serveEnv) ladder(seed uint64, ops *tally) ([]stepVerdict, error) {
	var out []stepVerdict
	failing := 0
	for i, rate := range ladderRates {
		steer, err := e.schedule(seed+uint64(i)+1, rate, ladderStep)
		if err != nil {
			return nil, err
		}
		arrivals := make([]arrival, len(steer))
		for j, a := range steer {
			arrivals[j] = arrival{at: a.At, sig: a.Sig}
		}
		v := judgeStep(e.runLeg(arrivals, rate, 0, ops), latencyLimit)
		out = append(out, v)
		if v.pass || v.generatorBound {
			failing = 0
			continue
		}
		if failing++; failing == 2 {
			break
		}
	}
	return out, nil
}

// sdkLoop is the in-process closed loop: `workers` goroutines calling
// SDK.Lookup back to back over seq for d, every decision checked against
// the oracle. Returns the lookups, their wall time and the process CPU time
// they took.
func (e *serveEnv) sdkLoop(sdk *serve.SDK, seq []bitvec.Vector, d time.Duration, ops *tally) (int64, time.Duration, time.Duration) {
	cfgs, kinds := e.expectAll(seq)
	var total, bad atomic.Int64
	var wg sync.WaitGroup
	c0, start := cpuTime(), now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			var n, wrong int64
			for i := off; ; i++ {
				if i&1023 == 0 && now().Sub(start) >= d {
					break
				}
				k := i % len(seq)
				dec, ok := sdk.Lookup(seq[k])
				if !ok || dec.Kind != kinds[k] || !dec.Config.Equal(cfgs[k]) {
					wrong++
				}
				n++
			}
			total.Add(n)
			bad.Add(wrong)
		}(w * len(seq) / workers)
	}
	wg.Wait()
	wall, cpu := now().Sub(start), cpuTime()-c0
	ops.attempted += int(total.Load() - bad.Load())
	for i := int64(0); i < bad.Load(); i++ {
		ops.check(false, "SDK lookup disagrees with the oracle")
	}
	return total.Load(), wall, cpu
}

// setupServe sets the daemon up serveSetups times, keeping the last one.
func setupServe(seed uint64) (*serveEnv, []float64, error) {
	var setups []float64
	var e *serveEnv
	for i := 0; i < serveSetups; i++ {
		if e != nil {
			e.close()
		}
		settle()
		t0 := now()
		var err error
		if e, err = serveSetup(seed); err != nil {
			return nil, nil, err
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	return e, setups, nil
}

// runServe is the serving workload: the HTTP closed loop with hot reloads
// (jobs_per_core_s), then the in-process SDK loop, the open-loop mixed leg
// and the capacity ladder, which are reported but not gated.
func runServe(o runOpts, ops *tally) (map[string]float64, error) {
	if o.trace {
		return traceServe(o, ops)
	}
	e, setups, err := setupServe(o.seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	seq, err := e.sequence(o.seed, 1<<16)
	if err != nil {
		return nil, err
	}
	closed, err := e.closedLoop(seq, o.seconds*15/100, ops)
	if err != nil {
		return nil, err
	}
	sdk := serve.NewSDK(obs.New())
	if err := sdk.Load(e.b); err != nil {
		return nil, err
	}
	lookups, sdkWall, sdkCPU := e.sdkLoop(sdk, seq, o.seconds/10, ops)
	mixed, err := e.mixedLeg(o.seed, o.seconds*3/10, ops)
	if err != nil {
		return nil, err
	}
	steps, err := e.ladder(o.seed, ops)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{
		"setup_s":         median(setups),
		"jobs_per_core_s": float64(closed.completed) / closed.cpu.Seconds(),
		"peak_rss_mb":     peakRSSMB(),
	}
	section("serve: %d entries (%d bytes), seed %d", len(e.b.Entries), len(e.data), o.seed)
	report("jobs_per_s", float64(closed.completed)/closed.wall.Seconds(), "jobs/s",
		fmt.Sprintf("steer requests, %d connections back to back, %d reloads", workers, closed.reload.Count()))
	report("sdk_lookups_per_s", float64(lookups)/sdkWall.Seconds(), "lookups/s", fmt.Sprintf("%d goroutines, closed loop", workers))
	report("sdk_lookups_per_core_s", float64(lookups)/sdkCPU.Seconds(), "lookups/core-s", "")
	p50, p99 := mixed.steer.Quantile(0.5), mixed.steer.Quantile(0.99)
	report("steer_p50_us", us(p50.Value), "us", fmt.Sprintf("%s, open loop at %.0f req/s with reloads", p50, nominalRate))
	report("steer_p99_us", us(p99.Value), "us", p99.String())
	r90 := mixed.reload.Quantile(0.9)
	report("reload_p90_ms", ms(r90.Value), "ms", r90.String())
	lag := mixed.lag.Quantile(0.99)
	report("send_lag_p99_us", us(lag.Value), "us", lag.String())
	for _, s := range steps {
		verdict := "fail"
		switch {
		case s.pass:
			verdict = "pass"
		case s.generatorBound:
			verdict = "generator-bound"
		case s.backlog:
			verdict = "backlog"
		}
		report(fmt.Sprintf("ladder_%.0f", s.rate), s.achieved, "req/s", fmt.Sprintf("%s, %s, send lag %s", verdict, s.p99, s.lagP99))
	}
	qps, ok := maxQPS(steps)
	note := fmt.Sprintf("p99 <= %v, no backlog, generator within the limit", latencyLimit)
	if !ok {
		note = "no step passed; " + note
	}
	report("steer_max_qps", qps, "req/s", note)
	report("failed_frac", ops.frac(), "", "")
	return m, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// readAll reads and closes a response body, so its connection is reused.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
