package par_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"steerq/internal/obs"
	"steerq/internal/par"
)

func TestRunZeroItems(t *testing.T) {
	for _, n := range []int{0, -3} {
		st, err := par.Run(8, n, par.Options{}, func(worker, i int) error {
			t.Fatalf("callback ran for n=%d (worker=%d i=%d)", n, worker, i)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: err = %v", n, err)
		}
		if st.Items != 0 || len(st.Executed) != 0 {
			t.Fatalf("n=%d: stats = %+v, want zero value", n, st)
		}
	}
}

func TestRunWorkersExceedItems(t *testing.T) {
	// 64 workers over 3 items must clamp to 3 workers, run every index exactly
	// once, and attribute exactly 3 executions across the per-worker tallies.
	var ran [3]atomic.Int32
	st, err := par.Run(64, 3, par.Options{}, func(worker, i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if st.Workers != 3 || len(st.Executed) != 3 {
		t.Fatalf("workers = %d (executed %d slots), want clamp to 3", st.Workers, len(st.Executed))
	}
	var total uint64
	for _, n := range st.Executed {
		total += n
	}
	if total != 3 || st.Items != 3 {
		t.Fatalf("executed %d items across workers, items=%d, want 3", total, st.Items)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestRunAllErrorLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := par.Run(workers, 41, par.Options{}, func(_, i int) error {
			return fmt.Errorf("item %d failed", i)
		})
		if err == nil || err.Error() != "item 0 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest failing index", workers, err)
		}
	}
}

// TestRunWorkerIdentityIsExclusive verifies the worker-local-state contract:
// at most one item runs under a given worker identity at a time, so
// unsynchronized per-worker slots must never race (the -race runs of this
// test would catch a violation) nor observe interleaved writes.
func TestRunWorkerIdentityIsExclusive(t *testing.T) {
	const workers, n = 4, 256
	depth := make([]atomic.Int32, workers)
	counts := make([]int, workers) // unsynchronized on purpose: exclusivity is the lock
	_, err := par.Run(workers, n, par.Options{}, func(worker, i int) error {
		if d := depth[worker].Add(1); d != 1 {
			return fmt.Errorf("worker %d reentered (depth %d)", worker, d)
		}
		counts[worker]++
		depth[worker].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

// TestRunPriorityOrderSerial pins the scheduling order at one worker: by
// descending priority, ties broken by the lower input index. Results remain
// slotted by index regardless.
func TestRunPriorityOrderSerial(t *testing.T) {
	pri := []int64{5, 9, 5, 1, 9, 5}
	var order []int
	out := make([]int, len(pri))
	_, err := par.Run(1, len(pri), par.Options{
		Priority: func(i int) int64 { return pri[i] },
	}, func(_, i int) error {
		order = append(order, i)
		out[i] = i * 10
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	want := []int{1, 4, 0, 2, 5, 3} // 9s first (1 before 4), then 5s in index order, then 1
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("schedule order = %v, want %v (priority desc, ties by index)", order, want)
		}
	}
	for i := range out {
		if out[i] != i*10 {
			t.Fatalf("out[%d] = %d: results must stay slotted by index", i, out[i])
		}
	}
}

// TestRunPriorityDeterminismAcrossWorkers: priorities shift the schedule but
// never the observable outputs — identical results and the same lowest-index
// error at any worker count, with or without a priority function.
func TestRunPriorityDeterminismAcrossWorkers(t *testing.T) {
	const n = 97
	boom := errors.New("boom")
	run := func(workers int, pri func(int) int64) ([]int, error) {
		out := make([]int, n)
		_, err := par.Run(workers, n, par.Options{Priority: pri}, func(_, i int) error {
			out[i] = i*i + 7
			if i%13 == 4 {
				return fmt.Errorf("%w at %d", boom, i)
			}
			return nil
		})
		return out, err
	}
	base, baseErr := run(1, nil)
	for _, workers := range []int{1, 2, 8} {
		for _, pri := range []func(int) int64{nil, func(i int) int64 { return int64(i % 7) }} {
			out, err := run(workers, pri)
			if (err == nil) != (baseErr == nil) || (err != nil && err.Error() != baseErr.Error()) {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, baseErr)
			}
			for i := range out {
				if out[i] != base[i] {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], base[i])
				}
			}
		}
	}
}

// TestRunStalledItemDoesNotBlockOthers: one worker stalls on item 0 while
// the others run every remaining item; the run must complete all n.
func TestRunStalledItemDoesNotBlockOthers(t *testing.T) {
	const workers, n = 4, 64
	release := make(chan struct{})
	var ran atomic.Int32
	var stallOnce sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := par.Run(workers, n, par.Options{}, func(worker, i int) error {
			if i == 0 {
				stallOnce.Do(func() { <-release })
			}
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Errorf("err = %v", err)
		}
	}()
	// The other workers finish everything else; index 0 is still running.
	for ran.Load() < n-1 {
		runtime.Gosched()
	}
	close(release)
	<-done
	if ran.Load() != n {
		t.Fatalf("%d items ran, want %d", ran.Load(), n)
	}
}

// TestRunDispatchFollowsPriorityOrder pins the dispatch order at two
// workers: while the worker holding the top-priority item is blocked, the
// other worker runs every remaining item in exactly the schedule order
// (descending priority, ties by index) — not a per-worker share of it.
func TestRunDispatchFollowsPriorityOrder(t *testing.T) {
	pri := []int64{3, 9, 3, 1, 9, 5, 7, 3, 2, 8, 5, 0}
	want := []int{1, 4, 9, 6, 5, 10, 0, 2, 7, 8, 3, 11}
	release := make(chan struct{})
	var mu sync.Mutex
	var seq []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := par.Run(2, len(pri), par.Options{
			Priority: func(i int) int64 { return pri[i] },
		}, func(_, i int) error {
			if i == want[0] {
				<-release
				return nil
			}
			mu.Lock()
			seq = append(seq, i)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Errorf("err = %v", err)
		}
	}()
	for {
		mu.Lock()
		got := len(seq)
		mu.Unlock()
		if got == len(want)-1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	<-done
	for k, i := range want[1:] {
		if seq[k] != i {
			t.Fatalf("dispatch order behind the blocked item = %v, want %v", seq, want[1:])
		}
	}
}

// TestSchedObsCanonicalUnderVClock: with the deterministic clock set, the
// published schedule is the canonical serial one — all items on worker "0" —
// no matter how many workers actually ran, so frozen-clock metric snapshots
// cannot depend on scheduling.
func TestSchedObsCanonicalUnderVClock(t *testing.T) {
	t.Setenv(obs.VClockEnv, "1")
	reg := obs.NewWithClock(obs.FrozenClock())
	so := par.NewSchedObs(reg, "pool", "test")
	for _, workers := range []int{1, 8} {
		if _, err := par.Run(workers, 50, par.Options{Obs: so}, func(_, i int) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	var items uint64
	workerSeen := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Name == "steerq_par_items_total" {
			items += c.Value
			for _, l := range c.Labels {
				if l.Key == "worker" {
					workerSeen[l.Value] = true
				}
			}
		}
	}
	if items != 100 {
		t.Fatalf("canonical items = %v, want 100", items)
	}
	if len(workerSeen) != 1 || !workerSeen["0"] {
		t.Fatalf("worker labels = %v, want only \"0\" under %s", workerSeen, obs.VClockEnv)
	}
	for _, g := range snap.Gauges {
		if g.Name == "steerq_par_queue_depth" && g.Value != 0 {
			t.Fatalf("queue depth = %v between runs, want 0", g.Value)
		}
	}
}

// TestSchedObsActualsWithoutVClock: on the wall clock the per-worker split is
// published as measured (summing to the item count).
func TestSchedObsActualsWithoutVClock(t *testing.T) {
	t.Setenv(obs.VClockEnv, "")
	reg := obs.NewWithClock(obs.FrozenClock())
	so := par.NewSchedObs(reg, "pool", "test")
	st, err := par.Run(4, 40, par.Options{Obs: so}, func(_, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var items uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "steerq_par_items_total" {
			items += c.Value
		}
	}
	if items != uint64(st.Items) {
		t.Fatalf("published items = %v, want %d", items, st.Items)
	}
}

func TestNewSchedObsNilRegistry(t *testing.T) {
	so := par.NewSchedObs(nil)
	if so != nil {
		t.Fatal("nil registry must yield a nil (no-op) SchedObs")
	}
	// The nil SchedObs must be safe to thread through a run.
	if _, err := par.Run(2, 8, par.Options{Obs: so}, func(_, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
