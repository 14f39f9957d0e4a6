package main

import (
	"sort"
	"testing"
	"time"

	"steerq/internal/xrand"
)

// oracleQuantile scans a sorted copy for the first value with at least
// q·n values at or below it; misses sort above every value.
func oracleQuantile(samples []time.Duration, misses int, q float64) (time.Duration, bool, int) {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s) + misses
	for i := 0; i < n; i++ {
		if float64(i+1) >= q*float64(n)-1e-9 {
			if i >= len(s) {
				return 0, true, n - i - 1
			}
			return s[i], false, n - i - 1
		}
	}
	return 0, false, 0
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	r := xrand.New(7)
	qs := []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 200; trial++ {
		var l Latencies
		var raw []time.Duration
		n := 1 + r.Intn(3000)
		for i := 0; i < n; i++ {
			d := time.Duration(r.Exp(1) * float64(time.Millisecond))
			raw = append(raw, d)
			l.Add(d)
		}
		misses := 0
		if trial%3 == 0 {
			misses = r.Intn(n/50 + 2)
			for i := 0; i < misses; i++ {
				l.Miss()
			}
		}
		for _, q := range qs {
			got := l.Quantile(q)
			want, miss, beyond := oracleQuantile(raw, misses, q)
			if got.Value != want || got.Miss != miss || got.Beyond != beyond || got.N != n+misses {
				t.Fatalf("trial %d q=%g: got %+v, want value %v miss %v beyond %d n %d", trial, q, got, want, miss, beyond, n+misses)
			}
		}
	}
}

func TestQuantileCountsAndMerge(t *testing.T) {
	var a, b Latencies
	for i := 1; i <= 1000; i++ {
		if i%2 == 0 {
			a.Add(time.Duration(i))
		} else {
			b.Add(time.Duration(i))
		}
	}
	a.Merge(&b)
	p99 := a.Quantile(0.99)
	if p99.Value != 990 || p99.N != 1000 || p99.Beyond != 10 {
		t.Fatalf("p99 = %+v, want 990 with 10 beyond of 1000", p99)
	}
	p50 := a.Quantile(0.5)
	if p50.Value != 500 || p50.Beyond != 500 {
		t.Fatalf("p50 = %+v, want 500 with 500 beyond", p50)
	}
	// Ten misses on top rank above every sample: the p99 of 1010 lands on
	// the first miss.
	for i := 0; i < 10; i++ {
		a.Miss()
	}
	if got := a.Quantile(0.995); !got.Miss {
		t.Fatalf("p99.5 with 10 misses in 1010 = %+v, want a miss", got)
	}
	var empty Latencies
	if got := empty.Quantile(0.5); got.N != 0 || got.Value != 0 {
		t.Fatalf("empty record quantile = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its input: %v", c.in)
			}
		}
	}
}

func TestUpperQuartile(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{4, 1, 3, 2}, 3}, {[]float64{5, 1, 4, 2, 3}, 4}, {[]float64{8, 1, 7, 2, 6, 3, 5, 4}, 6}} {
		if got := upperQuartile(c.in); got != c.want {
			t.Errorf("upperQuartile(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}
