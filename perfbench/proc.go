package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"steerq/internal/obs"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is a reading of the Go runtime's cumulative GC CPU and heap
// allocation counters.
type goStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
}

var goStatNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[2].Value.Uint64()
	}
	return g
}

// gcCPUFrac is the share of the runtime's CPU time spent in GC between two
// readings, and allocMB the heap allocated between them.
func (g goStats) gcCPUFrac(later goStats) float64 {
	if d := later.totalCPU - g.totalCPU; d > 0 {
		return (later.gcCPU - g.gcCPU) / d
	}
	return 0
}

func (g goStats) allocMB(later goStats) float64 {
	return float64(later.allocBytes-g.allocBytes) / (1 << 20)
}

// now reads the wall clock through obs.WallClock, the program's one
// approved wall-clock seam: a benchmark measures real time by design.
var now = obs.WallClock()

// settle collects the garbage earlier work left behind, so the timed
// section that follows pays for its own garbage only.
func settle() { runtime.GC() }
