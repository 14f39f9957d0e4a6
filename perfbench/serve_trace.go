package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/experiments"
	"steerq/internal/obs"
	"steerq/internal/serve"
)

// Sizes of the traced serve run's layer loops.
const (
	traceRepeats  = 10      // bundle decodes and table builds
	traceLookups  = 1 << 20 // table and SDK lookups per loop
	traceHandlers = 20000   // handler calls through httptest
	traceRequests = 4000    // loopback round trips, traced and untraced
)

// spanHeader carries the client's request span to the server-side span.
const spanHeader = "X-Perfbench-Span"

// checkSteerBody decodes a steer reply and compares it with the oracle.
func (e *serveEnv) checkSteerBody(status int, body []byte, sig bitvec.Vector) error {
	if status != http.StatusOK {
		return fmt.Errorf("steer %s: status %d", sig.Hex(), status)
	}
	var sr serve.SteerResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("steer %s: %w", sig.Hex(), err)
	}
	cfg, kind := e.expect(sig)
	if sr.Kind != kind.String() || sr.Config != cfg.Hex() {
		return fmt.Errorf("steer %s: %s/%s, oracle %s/%s", sig.Hex(), sr.Kind, sr.Config, kind, cfg.Hex())
	}
	return nil
}

// lookupLoop times n calls of lookup over seq on one goroutine, checking
// each decision, and returns ns per call.
func (e *serveEnv) lookupLoop(seq []bitvec.Vector, n int, lookup func(bitvec.Vector) (serve.Decision, bool), ops *tally) float64 {
	cfgs, kinds := e.expectAll(seq)
	wrong := 0
	start := now()
	for i := 0; i < n; i++ {
		k := i % len(seq)
		d, ok := lookup(seq[k])
		if !ok || d.Kind != kinds[k] || !d.Config.Equal(cfgs[k]) {
			wrong++
		}
	}
	el := now().Sub(start)
	ops.attempted += n - wrong
	for i := 0; i < wrong; i++ {
		ops.check(false, "lookup disagrees with the oracle")
	}
	return float64(el.Nanoseconds()) / float64(n)
}

// roundTrips sends one request per signature, sequentially, and checks each
// reply. With a tracer, each request gets a net.request span whose ID the
// server-side span names as its parent.
func (e *serveEnv) roundTrips(base string, sigs []bitvec.Vector, t *Tracer, parent int, ops *tally) time.Duration {
	start := now()
	for i, sig := range sigs {
		req, err := http.NewRequest(http.MethodGet, base+serve.PathSteer+"?sig="+sig.Hex(), nil)
		if err != nil {
			ops.check(false, "build request: %v", err)
			continue
		}
		id := 0
		if t != nil {
			id = t.Begin("net.request", "req"+strconv.Itoa(i), parent)
			req.Header.Set(spanHeader, strconv.Itoa(id))
		}
		resp, err := e.client.Do(req)
		var body []byte
		if err == nil {
			body, err = readAll(resp)
		}
		if t != nil {
			t.Finish(id)
		}
		if err != nil {
			ops.check(false, "steer %s: %v", sig.Hex(), err)
			continue
		}
		err = e.checkSteerBody(resp.StatusCode, body, sig)
		ops.check(err == nil, "%v", err)
	}
	return now().Sub(start)
}

// traceServe is the traced serve run: each serving layer's public call
// timed on its own inside one root span (bundle decode, table build, table
// and SDK lookups, the handler without a socket, loopback round trips with
// a server-side span per request), then the mixed leg for the decision mix
// and the generator's send lag.
func traceServe(o runOpts, ops *tally) (map[string]float64, error) {
	t := NewTracer()
	cfg := experiments.DefaultConfig()
	cfg.Seed = o.seed
	t.Call("workload.day", "day0", 0, func() { experiments.NewRunner(cfg).Day("A", 0) })
	e, err := serveSetup(o.seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	seq, err := e.sequence(o.seed, 1<<16)
	if err != nil {
		return nil, err
	}

	// Untraced loopback round trips, the baseline of the tracing overhead.
	hnd := e.srv.Handler()
	sigs := seq[:traceRequests]
	untraced := e.roundTrips(e.base, sigs, nil, 0, ops)
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		t.Call("serve.handler", "req", parent, func() { hnd.ServeHTTP(w, r) })
	}))
	defer wrapped.Close()

	root := t.Begin("serve.layers", "serve", 0)
	for i := 0; i < traceRepeats; i++ {
		t.Call("bundle.decode", "decode", root, func() {
			d, err := bundle.Decode(e.data)
			ops.check(err == nil && d.Checksum() == e.b.Checksum(), "bundle decode: %v", err)
		})
	}
	for i := 0; i < traceRepeats; i++ {
		t.Call("serve.table_build", "table", root, func() { serve.NewTable(e.b) })
	}
	var tableNs, sdkNs, bareNs float64
	t.Call("serve.table_lookup", "lookups", root, func() {
		tab := serve.NewTable(e.b)
		tableNs = e.lookupLoop(seq, traceLookups, func(s bitvec.Vector) (serve.Decision, bool) { return tab.Lookup(s), true }, ops)
	})
	for _, c := range []struct {
		name string
		reg  *obs.Registry
		out  *float64
	}{{"serve.sdk_lookup", obs.New(), &sdkNs}, {"serve.sdk_lookup_bare", nil, &bareNs}} {
		t.Call(c.name, "lookups", root, func() {
			sdk := serve.NewSDK(c.reg)
			if err = sdk.Load(e.b); err == nil {
				*c.out = e.lookupLoop(seq, traceLookups, sdk.Lookup, ops)
			}
		})
		if err != nil {
			return nil, err
		}
	}

	// The handler alone, through httptest: no socket.
	var handlerLat Latencies
	recs := make([]*httptest.ResponseRecorder, traceHandlers)
	t.Call("serve.handler", "handler", root, func() {
		for i := range recs {
			req := httptest.NewRequest(http.MethodGet, serve.PathSteer+"?sig="+seq[i%len(seq)].Hex(), nil)
			recs[i] = httptest.NewRecorder()
			t0 := now()
			hnd.ServeHTTP(recs[i], req)
			handlerLat.Add(now().Sub(t0))
		}
	})

	// Loopback round trips through a second listener whose handler records
	// a span per request, parented by the client's request span.
	rtID := t.Begin("net.roundtrip", "roundtrip", root)
	traced := e.roundTrips(wrapped.URL, sigs, t, rtID, ops)
	t.Finish(rtID)
	t.Finish(root)

	for i, rec := range recs {
		err := e.checkSteerBody(rec.Code, rec.Body.Bytes(), seq[i%len(seq)])
		ops.check(err == nil, "%v", err)
	}
	allocs := handlerAllocs(hnd, seq[:1000])

	spans := t.Spans()
	var rtt, handlerSpan Latencies
	for _, s := range spans {
		if s.Name == "net.request" {
			rtt.Add(s.End - s.Start)
		}
		if s.Name == "serve.handler" && s.Parent != root {
			handlerSpan.Add(s.End - s.Start)
		}
	}
	att := Attribute(spans, root)
	if err := att.Check(); err != nil {
		ops.check(false, "%v", err)
	}

	g0 := readGoStats()
	mixed, err := e.mixedLeg(o.seed, o.seconds*3/10, ops)
	if err != nil {
		return nil, err
	}
	g1 := readGoStats()

	decodeD, decodes := spanTotal(spans, "bundle.decode")
	buildD, builds := spanTotal(spans, "serve.table_build")
	dayD, _ := spanTotal(spans, "workload.day")
	total := mixed.kinds[0] + mixed.kinds[1] + mixed.kinds[2]
	m := map[string]float64{
		"workload.day_ms":          ms(dayD),
		"bundle.bytes":             float64(len(e.data)),
		"bundle.decode_ms":         ms(decodeD) / float64(decodes),
		"serve.table_build_ms":     ms(buildD) / float64(builds),
		"serve.table_lookup_ns":    tableNs,
		"serve.sdk_lookup_ns":      sdkNs,
		"serve.sdk_lookup_bare_ns": bareNs,
		"serve.handler_us":         us(handlerLat.Quantile(0.5).Value),
		"serve.handler_allocs":     allocs,
		"serve.hit_frac":           ratio(float64(mixed.kinds[serve.KindHit]), float64(total)),
		"serve.fallback_frac":      ratio(float64(mixed.kinds[serve.KindFallback]), float64(total)),
		"serve.default_frac":       ratio(float64(mixed.kinds[serve.KindDefault]), float64(total)),
		"net.roundtrip_us":         us(rtt.Quantile(0.5).Value - handlerSpan.Quantile(0.5).Value),
		"loadgen.send_lag_p99_us":  us(mixed.lag.Quantile(0.99).Value),
		"go.gc_cpu_frac":           g0.gcCPUFrac(g1),
		"go.alloc_mb_per_job":      ratio(g0.allocMB(g1), float64(mixed.completed)),
		"trace.overhead_s":         (traced - untraced).Seconds(),
		"trace.unattributed_frac":  att.Unattributed.Seconds() / att.Wall.Seconds(),
	}
	printAttribution(att)
	section("serve traced: %d round trips untraced %.3fs, traced %.3fs; handler %s; round trip %s",
		traceRequests, untraced.Seconds(), traced.Seconds(), handlerSpan.Quantile(0.5), rtt.Quantile(0.5))
	return m, nil
}

// handlerAllocs is the heap allocations of one steer handler call,
// recorder included, averaged over sigs.
func handlerAllocs(hnd http.Handler, sigs []bitvec.Vector) float64 {
	reqs := make([]*http.Request, len(sigs))
	for i, s := range sigs {
		reqs[i] = httptest.NewRequest(http.MethodGet, serve.PathSteer+"?sig="+s.Hex(), nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		hnd.ServeHTTP(httptest.NewRecorder(), r)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(reqs))
}
