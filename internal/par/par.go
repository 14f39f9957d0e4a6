// Package par provides the bounded, deterministic fan-out primitive used by
// the discovery pipeline and the experiment runner.
//
// The determinism contract is the whole point: results are slotted by *input
// index*, never by completion order, and error reporting picks the failure at
// the lowest index — so a run with Workers=8 is bit-for-bit identical to a
// run with Workers=1, and the worker count is purely a throughput knob. Any
// call site whose output depended on goroutine scheduling would break the
// reproduction guarantees of internal/xrand, which is why no streaming or
// completion-order API is offered at all.
//
// There is one dispatch path: Run claims items from one atomic cursor over
// the schedule order (index order, or descending priority), and ForEach and
// Map are thin wrappers over it. Cancellation belongs to the callback:
// callers bound each compile or execution attempt with ItemContext and carry
// a failure as data.
//
// Worker counts resolve in precedence order: an explicit positive value, the
// STEERQ_WORKERS environment variable, then runtime.GOMAXPROCS(0).
//
// steerq:hotpath — every candidate compile is dispatched through this
// package; the hotalloc analyzer guards the scheduler against allocation
// regressions.
package par

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"time"
)

// EnvWorkers is the environment variable consulted when no explicit worker
// count is configured.
const EnvWorkers = "STEERQ_WORKERS"

// Workers resolves a configured worker count: n itself when positive, else
// STEERQ_WORKERS when set to a positive integer, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	if p := runtime.GOMAXPROCS(0); p > 0 {
		return p
	}
	return 1
}

// ForEach runs f(i) for every i in [0, n) on at most Workers(workers)
// goroutines and waits for all of them. Every index runs regardless of other
// indices' failures (pipeline call sites treat per-item failure as data, not
// as a reason to stop); the returned error is the one from the lowest failing
// index, so the error too is independent of scheduling.
//
// ForEach schedules through Run with no priority function, so items are
// dispatched in index order; callers that want priorities, worker identities
// or scheduling telemetry use Run directly.
func ForEach(workers, n int, f func(i int) error) error {
	_, err := Run(workers, n, Options{}, func(_, i int) error {
		return f(i)
	})
	return err
}

// Map applies f to every item and returns the results slotted by input index.
// The output slice always has len(items) entries — failed items keep their
// zero value — and the returned error is the lowest-index failure, exactly as
// in ForEach.
func Map[T, R any](workers int, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(workers, len(items), func(i int) error {
		r, err := f(i, items[i])
		out[i] = r
		return err
	})
	return out, err
}

// ItemContext bounds one pool item (one compile, one execution) by a
// per-item timeout: d > 0 derives a deadline context, d <= 0 returns ctx
// unchanged with a no-op cancel. Callers always `defer cancel()`, so the
// zero-timeout path must not allocate a cancelable context.
func ItemContext(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
