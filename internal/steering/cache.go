package steering

import (
	"sync"
	"sync/atomic"

	"steerq/internal/bitvec"
	"steerq/internal/obs"
	"steerq/internal/workload"
)

// JobFingerprint identifies one recurring job instance for caching.
//
// The production follow-up to the paper (QO-Advisor) keeps the recompilation
// fan-out affordable by never compiling the same recurring input twice; this
// fingerprint is how the reproduction gets the same effect. Template
// identifies the recurring job structure, Instance fingerprints the day's
// bound constants (recurring arrivals vary predicate literals, §3.1.1), and
// Inputs fingerprints the set of streams read that day — together they pin
// exactly the facts the estimated-statistics optimizer consumes, so a cached
// {cost, signature} is bit-identical to recompiling.
type JobFingerprint struct {
	Template uint64
	Instance uint64
	Inputs   uint64
}

// CompileValue is the cached outcome of one compilation. Plans themselves are
// not retained — the pipeline's candidate stage only consumes the estimated
// cost and the rule signature, and dropping the plan keeps a multi-day cache
// small.
type CompileValue struct {
	Cost      float64
	Signature bitvec.Vector
	// Footprint is the compile's decision footprint (cascades.Result): the
	// rule IDs whose enabled-bit the search read. It doubles as the cache's
	// index: entries are stored under the configuration *projected onto the
	// footprint*, so any configuration agreeing on those bits — even one
	// differing on irrelevant rules — finds the entry.
	Footprint bitvec.Vector
	// OK is false when the configuration did not compile (cascades.ErrNoPlan
	// — the only per-configuration failure the optimizer produces). Failures
	// are cached too: recurring jobs re-probe the same dead configurations,
	// and the footprint of a failed search is just as sharing-sound as a
	// successful one's.
	OK bool
}

// cacheShards is the fixed shard count. Power of two so the shard pick is a
// mask; 64 shards keep lock contention negligible at any plausible worker
// count. Sharding is by job fingerprint alone, so all entries of one job
// live in one shard.
const cacheShards = 64

// footprintEntry holds every cached outcome sharing one decision footprint,
// keyed by the writer configuration projected onto that footprint.
type footprintEntry struct {
	foot bitvec.Vector
	vals map[bitvec.Key]*cacheSlot
}

// cacheSlot is one cached outcome.
type cacheSlot struct {
	val CompileValue
	// writer is the full (unprojected) key of the configuration that wrote
	// the entry; a lookup whose full key differs found the entry through
	// footprint projection alone (counted as a projected hit).
	writer bitvec.Key
}

// jobEntry indexes one job's footprint entries in insertion order. Lookups
// scan the footprints oldest-first; compiles of one job read overlapping
// rule sets, so the list stays short (often length one).
type jobEntry struct {
	foots []*footprintEntry
}

type cacheShard struct {
	mu   sync.RWMutex
	jobs map[JobFingerprint]*jobEntry
}

// Cache metric names. The cache always counts through *obs.Counter — a
// standalone set by default, registry-owned ones after SetObs — so reads
// are atomic everywhere and wiring observability re-points rather than
// duplicates.
const (
	cacheHitsMetric     = "steerq_cache_hits_total"
	cacheMissesMetric   = "steerq_cache_misses_total"
	cacheEntriesMetric  = "steerq_cache_entries"
	cacheProjHitsMetric = "steerq_cache_projected_hits_total"
)

// CompileCache is a sharded, concurrency-safe memo of compilation outcomes
// indexed by (job fingerprint, footprint-projected configuration). A single
// cache is shared across days and experiments of one workload; hit/miss/
// projected-hit counters feed the steerq-bench perf report.
//
// Lookups project the probing configuration onto each stored footprint of
// the job, so recurring templates hit even when the probing configuration
// differs from the writer's on rules the compile never consulted. A hit
// whose full configuration differs from the writer's is additionally
// counted as a projected hit.
//
// The cache is unbounded: it lives for one workload run (a bundle build, an
// experiment), whose distinct (job, footprint projection) pairs it holds.
type CompileCache struct {
	shards    [cacheShards]cacheShard
	entries   atomic.Int64
	hits      *obs.Counter
	misses    *obs.Counter
	projected *obs.Counter
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	c := &CompileCache{
		hits:      obs.NewCounter(cacheHitsMetric),
		misses:    obs.NewCounter(cacheMissesMetric),
		projected: obs.NewCounter(cacheProjHitsMetric),
	}
	for i := range c.shards {
		c.shards[i].jobs = make(map[JobFingerprint]*jobEntry)
	}
	return c
}

// SetObs re-points the cache's counters at registry-owned instruments (with
// the given label pairs, e.g. "workload", "A") and registers an entry-count
// gauge. Counts accumulated before the call carry over. Call it before the
// cache is shared across goroutines: the counter fields themselves are not
// synchronized, only their values are.
func (c *CompileCache) SetObs(reg *obs.Registry, labels ...string) {
	if c == nil || reg == nil {
		return
	}
	hits := reg.Counter(cacheHitsMetric, labels...)
	misses := reg.Counter(cacheMissesMetric, labels...)
	projected := reg.Counter(cacheProjHitsMetric, labels...)
	hits.Add(c.hits.Value())
	misses.Add(c.misses.Value())
	projected.Add(c.projected.Value())
	c.hits, c.misses, c.projected = hits, misses, projected
	reg.GaugeFunc(cacheEntriesMetric, func() float64 {
		return float64(c.entries.Load())
	}, labels...)
}

// shard maps a job fingerprint to its shard.
func (c *CompileCache) shard(fp JobFingerprint) *cacheShard {
	h := fp.Template ^ fp.Instance*0x9e3779b97f4a7c15 ^ fp.Inputs*0x85ebca6b
	return &c.shards[h%cacheShards]
}

// lookup scans the job's footprint entries in insertion order for one whose
// projection of cfg is present, and returns a copy of it: a concurrent Put
// may refresh the slot once the caller drops the lock. Callers hold at least
// the read lock.
func (s *cacheShard) lookup(fp JobFingerprint, cfg bitvec.Vector) (cacheSlot, bool) {
	if je := s.jobs[fp]; je != nil {
		for _, fe := range je.foots {
			if slot, ok := fe.vals[cfg.And(fe.foot).Key()]; ok {
				return *slot, true
			}
		}
	}
	return cacheSlot{}, false
}

// Get returns the cached value for compiling the fingerprinted job under
// cfg, matching by footprint projection. The hit/miss (and projected-hit)
// counters are updated; a nil receiver reports a miss, so call sites need
// no nil guards.
func (c *CompileCache) Get(fp JobFingerprint, cfg bitvec.Vector) (CompileValue, bool) {
	if c == nil {
		return CompileValue{}, false
	}
	s := c.shard(fp)
	s.mu.RLock()
	slot, ok := s.lookup(fp, cfg)
	s.mu.RUnlock()
	if !ok {
		c.misses.Inc()
		return CompileValue{}, false
	}
	c.hits.Inc()
	if slot.writer != cfg.Key() {
		c.projected.Inc()
	}
	return slot.val, true
}

// Put stores the outcome of compiling the fingerprinted job under cfg. The
// entry is indexed by cfg projected onto v.Footprint. Concurrent Puts of
// the same projection are benign: compilation is deterministic, so both
// writers carry identical values.
func (c *CompileCache) Put(fp JobFingerprint, cfg bitvec.Vector, v CompileValue) {
	if c == nil {
		return
	}
	s := c.shard(fp)
	s.mu.Lock()
	c.putLocked(s, fp, cfg, v)
	s.mu.Unlock()
}

// CacheWrite is one pending insertion for PutBatch.
type CacheWrite struct {
	Config bitvec.Vector
	Value  CompileValue
}

// PutBatch applies a batch of writes for one fingerprinted job under a
// single shard-lock acquisition, in slice order. The pipeline's merge phase
// writes a job's whole candidate stage through it — all of one job's
// entries live in one shard (sharding is by fingerprint alone), so the
// stage pays one lock round trip instead of one per candidate, and
// insertion order (which fixes lookup scan order) is exactly the slice
// order, independent of how many workers produced the values.
func (c *CompileCache) PutBatch(fp JobFingerprint, writes []CacheWrite) {
	if c == nil || len(writes) == 0 {
		return
	}
	s := c.shard(fp)
	s.mu.Lock()
	for _, w := range writes {
		c.putLocked(s, fp, w.Config, w.Value)
	}
	s.mu.Unlock()
}

// putLocked inserts one entry into s, which must be fp's shard and write-
// locked by the caller.
func (c *CompileCache) putLocked(s *cacheShard, fp JobFingerprint, cfg bitvec.Vector, v CompileValue) {
	je := s.jobs[fp]
	if je == nil {
		je = &jobEntry{}
		s.jobs[fp] = je
	}
	var fe *footprintEntry
	for _, f := range je.foots {
		if f.foot.Equal(v.Footprint) {
			fe = f
			break
		}
	}
	if fe == nil {
		fe = &footprintEntry{foot: v.Footprint, vals: make(map[bitvec.Key]*cacheSlot)}
		je.foots = append(je.foots, fe)
	}
	k := cfg.And(v.Footprint).Key()
	if slot, ok := fe.vals[k]; ok {
		slot.val = v // deterministic recompile of the same projection; refresh
		return
	}
	fe.vals[k] = &cacheSlot{val: v, writer: cfg.Key()}
	c.entries.Add(1)
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Projected uint64
	Entries   int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ProjectedRate returns the fraction of hits found through footprint
// projection rather than an exact writer-configuration match.
func (s CacheStats) ProjectedRate() float64 {
	if s.Hits == 0 {
		return 0
	}
	return float64(s.Projected) / float64(s.Hits)
}

// Stats snapshots the counters and entry count. Safe on a nil cache.
func (c *CompileCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Projected: c.projected.Value(),
		Entries:   int(c.entries.Load()),
	}
}

// jobFingerprint extracts a job's cache fingerprint, and reports whether
// the job is cacheable at all. Ad-hoc jobs (e.g. scripts compiled by the
// CLI) carry no fingerprints; caching them under an all-zero fingerprint
// would alias every script onto one entry, so they bypass the cache.
func jobFingerprint(job *workload.Job) (JobFingerprint, bool) {
	if job.TemplateHash == 0 && job.InstanceHash == 0 && job.InputsHash == 0 {
		return JobFingerprint{}, false
	}
	return JobFingerprint{
		Template: job.TemplateHash,
		Instance: job.InstanceHash,
		Inputs:   job.InputsHash,
	}, true
}
