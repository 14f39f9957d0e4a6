package steering_test

import (
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/obs"
	"steerq/internal/steering"
)

// cfp builds a distinct synthetic job fingerprint.
func cfp(n uint64) steering.JobFingerprint {
	return steering.JobFingerprint{Template: n + 1, Instance: n * 31, Inputs: n * 7}
}

// cval builds a compile value whose footprint is {bit}, so distinct bits give
// distinct classes under one job.
func cval(bit int, cost float64) steering.CompileValue {
	return steering.CompileValue{Cost: cost, Footprint: bitvec.New(bit), OK: true}
}

// TestCompileCacheUnboundedNeverEvicts: the cache keeps everything —
// experiments that rely on full retention find every entry they wrote.
func TestCompileCacheUnboundedNeverEvicts(t *testing.T) {
	c := steering.NewCompileCache()
	for i := 0; i < 500; i++ {
		c.Put(cfp(uint64(i)), bitvec.New(i%bitvec.Width), cval(i%bitvec.Width, float64(i)))
	}
	if st := c.Stats(); st.Entries != 500 {
		t.Fatalf("cache dropped entries: %+v", st)
	}
	for i := 0; i < 500; i++ {
		if v, ok := c.Get(cfp(uint64(i)), bitvec.New(i%bitvec.Width)); !ok || v.Cost != float64(i) {
			t.Fatalf("entry %d lost: ok=%v v=%+v", i, ok, v)
		}
	}
}

// TestCompileCacheEntriesGaugeConsistency: the registry gauge tracks the
// live entry count through insert churn, and hits + misses always equals the
// number of lookups issued.
func TestCompileCacheEntriesGaugeConsistency(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	c := steering.NewCompileCache()
	c.SetObs(reg, "workload", "gauge-test")

	lookups := 0
	get := func(fp steering.JobFingerprint, cfg bitvec.Vector) bool {
		lookups++
		_, ok := c.Get(fp, cfg)
		return ok
	}
	for i := 0; i < 30; i++ {
		bit := i % 10
		fp := cfp(uint64(i % 3))
		cfg := bitvec.New(bit)
		if !get(fp, cfg) {
			c.Put(fp, cfg, cval(bit, float64(i)))
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != uint64(lookups) {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, lookups)
	}

	gauge := -1.0
	var hits, misses uint64
	snap := reg.Snapshot()
	for _, g := range snap.Gauges {
		if g.Name == "steerq_cache_entries" {
			gauge = g.Value
		}
	}
	for _, cp := range snap.Counters {
		switch cp.Name {
		case "steerq_cache_hits_total":
			hits = cp.Value
		case "steerq_cache_misses_total":
			misses = cp.Value
		}
	}
	if gauge != float64(st.Entries) {
		t.Fatalf("entries gauge %v != Stats().Entries %d", gauge, st.Entries)
	}
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("registry counters (h=%d m=%d) disagree with Stats() %+v", hits, misses, st)
	}
}

// TestCompileCacheProjectedHits: a configuration that differs from the
// writer's only outside the footprint must hit, and the hit must be counted
// as projected; agreeing configurations hit without the projected count.
func TestCompileCacheProjectedHits(t *testing.T) {
	c := steering.NewCompileCache()
	fp := cfp(9)
	writer := bitvec.New(3, 50)          // bit 50 is outside the footprint
	c.Put(fp, writer, cval(3, 7))        // footprint {3}
	if _, ok := c.Get(fp, writer); !ok { // exact writer config
		t.Fatal("writer config missed")
	}
	if st := c.Stats(); st.Projected != 0 {
		t.Fatalf("exact hit counted as projected: %+v", st)
	}
	probe := bitvec.New(3, 99, 200) // agrees on bit 3, differs elsewhere
	v, ok := c.Get(fp, probe)
	if !ok || v.Cost != 7 {
		t.Fatalf("projected probe missed: ok=%v v=%+v", ok, v)
	}
	if st := c.Stats(); st.Projected != 1 {
		t.Fatalf("projected hit not counted: %+v", st)
	}
	if _, ok := c.Get(fp, bitvec.New(99)); ok { // disagrees on footprint bit 3
		t.Fatal("footprint-bit disagreement hit anyway")
	}
}

// TestCompileCachePutRefreshKeepsCount: re-putting an existing projection
// must not grow the entry count.
func TestCompileCachePutRefreshKeepsCount(t *testing.T) {
	c := steering.NewCompileCache()
	fp := cfp(3)
	for i := 0; i < 10; i++ {
		c.Put(fp, bitvec.New(5), cval(5, float64(i)))
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("refreshing one class churned the cache: %+v", st)
	}
	if v, ok := c.Get(fp, bitvec.New(5)); !ok || v.Cost != 9 {
		t.Fatalf("refresh did not keep the latest value: %+v", v)
	}
}

// sanity check that cfp stays collision-free over the range the tests use.
func TestCfpDistinct(t *testing.T) {
	seen := map[steering.JobFingerprint]int{}
	for i := 0; i < 600; i++ {
		fp := cfp(uint64(i))
		if j, dup := seen[fp]; dup {
			t.Fatalf("cfp(%d) == cfp(%d): %+v", i, j, fp)
		}
		seen[fp] = i
	}
}

// TestPutBatchMatchesSerialPuts: a PutBatch must leave the cache in exactly
// the state the same writes applied one Put at a time would — entries and
// the hit pattern of a probe sweep — because batch insertion order is slice
// order.
func TestPutBatchMatchesSerialPuts(t *testing.T) {
	fp := cfp(3)
	build := func(batch bool) (*steering.CompileCache, string) {
		c := steering.NewCompileCache()
		for round := 0; round < 4; round++ {
			var writes []steering.CacheWrite
			for k := 0; k < 6; k++ {
				bit := (round*6 + k) % 20
				w := steering.CacheWrite{Config: bitvec.New(bit), Value: cval(bit, float64(bit))}
				if batch {
					writes = append(writes, w)
				} else {
					c.Put(fp, w.Config, w.Value)
				}
			}
			c.PutBatch(fp, writes)
		}
		probe := make([]byte, 20)
		for bit := 0; bit < 20; bit++ {
			switch v, ok := c.Get(fp, bitvec.New(bit)); {
			case !ok:
				probe[bit] = 'm'
			case v.Cost != float64(bit):
				probe[bit] = 'x'
			default:
				probe[bit] = 'H'
			}
		}
		return c, string(probe)
	}
	serialC, serialProbe := build(false)
	batchC, batchProbe := build(true)
	if batchProbe != serialProbe {
		t.Fatalf("probe pattern differs: batch %s vs serial %s", batchProbe, serialProbe)
	}
	ss, bs := serialC.Stats(), batchC.Stats()
	if ss.Entries != bs.Entries {
		t.Fatalf("stats differ: batch %+v vs serial %+v", bs, ss)
	}
}

// TestPutBatchNilAndEmpty: the nil-receiver and empty-batch paths are
// no-ops, matching Put's nil-safety so the pipeline needs no guards.
func TestPutBatchNilAndEmpty(t *testing.T) {
	var nilCache *steering.CompileCache
	nilCache.PutBatch(cfp(1), []steering.CacheWrite{{Config: bitvec.New(1), Value: cval(1, 1)}})
	c := steering.NewCompileCache()
	c.PutBatch(cfp(1), nil)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("empty batch inserted entries: %+v", st)
	}
}
