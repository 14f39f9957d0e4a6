package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Latencies is an exact latency record: it keeps every sample and sorts
// them once before reading percentiles, so a percentile has no bucket error
// at all (the histogram the load generator uses has a 1 µs floor and
// 1-2-5 buckets, so its p99 moves in 2–2.5× steps). A failed operation is
// recorded as a miss: it ranks above every measured sample, so it can only
// push a percentile up.
type Latencies struct {
	samples []time.Duration
	misses  int
	sorted  bool
}

// Add records one completed operation.
func (l *Latencies) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Miss records one failed operation.
func (l *Latencies) Miss() { l.misses++ }

// Merge appends o's samples and misses.
func (l *Latencies) Merge(o *Latencies) {
	l.samples = append(l.samples, o.samples...)
	l.misses += o.misses
	l.sorted = false
}

// Count is the number of operations recorded, misses included.
func (l *Latencies) Count() int { return len(l.samples) + l.misses }

// Quantile is one percentile of a record with the evidence behind it.
type Quantile struct {
	Q float64
	// Value is the nearest-rank percentile: the smallest recorded value
	// with at least Q·N values at or below it. Miss is true when that rank
	// falls among the failed operations, which have no value.
	Value time.Duration
	Miss  bool
	// N is the sample count and Beyond the number of samples ranked above
	// the percentile: a p99 with Beyond < 10 rests on too few samples to
	// be read on its own.
	N, Beyond int
}

// Quantile returns the nearest-rank q-quantile, q in (0, 1].
func (l *Latencies) Quantile(q float64) Quantile {
	n := l.Count()
	out := Quantile{Q: q, N: n}
	if n == 0 {
		return out
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	out.Beyond = n - rank
	if rank > len(l.samples) {
		out.Miss = true
		return out
	}
	out.Value = l.samples[rank-1]
	return out
}

// String renders the quantile with its counts, e.g. "p99 812µs (n=20000, 200 beyond)".
func (q Quantile) String() string {
	v := q.Value.String()
	if q.Miss {
		v = "miss"
	}
	return fmt.Sprintf("p%g %s (n=%d, %d beyond)", q.Q*100, v, q.N, q.Beyond)
}

// upperQuartile is the nearest-rank 75th percentile of xs; 0 for none. xs
// is not modified.
func upperQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.75*float64(len(s))))-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
