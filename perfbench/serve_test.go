package main

import (
	"testing"
	"time"
)

// leg builds a step record: n steer latencies of lat (the first and last
// quarters as given), send lag lag for every operation, and misses failed
// requests.
func leg(rate float64, n int, lat, firstQ, lastQ, lag time.Duration, misses int) *legResult {
	r := &legResult{rate: rate, wall: time.Second, completed: n}
	for i := 0; i < n; i++ {
		d := lat
		switch {
		case i < n/4:
			d = firstQ
			r.firstQ.Add(d)
		case i >= 3*n/4:
			d = lastQ
			r.lastQ.Add(d)
		}
		r.steer.Add(d)
		r.lag.Add(lag)
	}
	for i := 0; i < misses; i++ {
		r.steer.Miss()
		r.lastQ.Miss()
	}
	return r
}

func TestJudgeStep(t *testing.T) {
	const limit = 5 * time.Millisecond
	ms := time.Millisecond
	for _, c := range []struct {
		name                 string
		r                    *legResult
		pass, genBound, grow bool
	}{
		{"within limit", leg(1000, 1000, ms, ms, ms, 100*time.Microsecond, 0), true, false, false},
		{"p99 over limit", leg(1000, 1000, 6*ms, 6*ms, 6*ms, 100*time.Microsecond, 0), false, false, false},
		{"generator lag over limit", leg(1000, 1000, ms, ms, ms, 6*ms, 0), false, true, false},
		{"latency grows over the step", leg(1000, 1000, ms, ms, ms+2*ms, 100*time.Microsecond, 0), false, false, true},
		{"small growth is no backlog", leg(1000, 1000, ms, ms, ms+limit/8, 100*time.Microsecond, 0), true, false, false},
		// 2% failures rank above every latency, so the p99 is a miss.
		{"failures count as misses", leg(1000, 1000, ms, ms, ms, 100*time.Microsecond, 20), false, false, false},
	} {
		v := judgeStep(c.r, limit)
		if v.pass != c.pass || v.generatorBound != c.genBound || v.backlog != c.grow {
			t.Errorf("%s: pass=%v generatorBound=%v backlog=%v, want %v %v %v (p99 %s, lag %s)",
				c.name, v.pass, v.generatorBound, v.backlog, c.pass, c.genBound, c.grow, v.p99, v.lagP99)
		}
	}
}

func TestMaxQPSSkipsFailedAndGeneratorBoundSteps(t *testing.T) {
	steps := []stepVerdict{
		{rate: 2000, achieved: 1990, pass: true},
		{rate: 4000, achieved: 3980, pass: true},
		{rate: 6000, achieved: 5900, generatorBound: true},
		{rate: 8000, achieved: 7950, pass: true},
		{rate: 10000, achieved: 9000, backlog: true},
	}
	if got, ok := maxQPS(steps); !ok || got != 7950 {
		t.Fatalf("maxQPS = %g, %v; want 7950 (the highest passing step's achieved rate)", got, ok)
	}
	if _, ok := maxQPS([]stepVerdict{{rate: 2000, generatorBound: true}}); ok {
		t.Fatal("maxQPS found a passing step where none passed")
	}
}
