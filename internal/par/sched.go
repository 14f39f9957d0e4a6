// Shared-cursor scheduler: the execution engine behind ForEach/Map and the
// direct Run API.
//
// Run computes one schedule order up front (input order, or descending
// caller-supplied priority with ties by index) and every worker claims the
// next entry of it from one atomic cursor. The k-th item dispatched across
// all workers is therefore exactly order[k], at any worker count: the
// heaviest items start first and a stalled worker holds back only the item it
// is running. The cursor costs one atomic add per item, which is noise next
// to the hundreds of microseconds of one candidate compile. Scheduling moves
// decisions, never results — results stay slotted by input index and errors
// still resolve to the lowest failing index, so the determinism contract in
// the package comment is untouched.
//
// Observability is the one place scheduling could leak: which worker ran an
// item is genuinely schedule-dependent. Under the deterministic virtual
// clock (STEERQ_VCLOCK, the same switch that freezes span durations)
// SchedObs therefore publishes the canonical serial schedule — every item
// attributed to worker 0 — keeping frozen-clock metric snapshots
// byte-identical at any worker count, exactly as durations are canonicalized
// to zero. Wall-clock runs publish the actuals.

package par

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"steerq/internal/obs"
)

// Options configures one Run beyond the worker count.
type Options struct {
	// Priority, when non-nil, returns the scheduling weight of item i:
	// higher-weight items are dispatched first, ties broken by the lower
	// index. Priority affects scheduling only — results, errors and all
	// other observable outputs are identical for any weighting.
	Priority func(i int) int64

	// Obs, when non-nil, receives the run's scheduler telemetry (per-worker
	// executed items, live queue depth).
	Obs *SchedObs
}

// Stats reports one Run's scheduling activity. The per-worker execution
// split depends on timing (it describes which worker got to an item first)
// and is therefore diagnostic: no determinism guarantee covers it, unlike
// every value Run's callback computes.
type Stats struct {
	// Workers is the resolved worker count of the run.
	Workers int
	// Items is the number of scheduled items.
	Items int
	// Executed[w] counts the items worker w ran, summing to Items.
	Executed []uint64
}

// failure is one worker's lowest failing index and its error.
type failure struct {
	idx int
	err error
}

// Run executes f(worker, i) for every i in [0, n) on at most
// Workers(workers) goroutines, dispatched in schedule order from one shared
// cursor, and waits for all of them. The worker argument is a stable
// identity in [0, workers): at most one item runs under a given worker at a
// time, so callers may key worker-local state (scratch arenas, write
// buffers) by it without locking. Worker 0 runs on the calling goroutine.
//
// Every index runs regardless of other indices' failures and the returned
// error is the one from the lowest failing index, exactly as in ForEach.
// The returned Stats describe scheduling only; see its comment.
func Run(workers, n int, opts Options, f func(worker, i int) error) (Stats, error) {
	if n <= 0 {
		return Stats{}, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	st := Stats{Workers: w, Items: n, Executed: make([]uint64, w)}
	order := scheduleOrder(n, opts.Priority)
	opts.Obs.enqueue(n)

	var next atomic.Int64
	fails := make([]failure, w)
	work := func(self int) {
		fail := failure{idx: -1}
		var executed uint64
		for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
			i := order[k]
			opts.Obs.dequeue()
			executed++
			if err := f(self, i); err != nil && (fail.idx == -1 || i < fail.idx) {
				fail = failure{idx: i, err: err}
			}
		}
		st.Executed[self] = executed
		fails[self] = fail
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func(self int) {
			defer wg.Done()
			work(self)
		}(g)
	}
	work(0)
	wg.Wait()

	first := failure{idx: -1}
	for _, fail := range fails {
		if fail.idx != -1 && (first.idx == -1 || fail.idx < first.idx) {
			first = fail
		}
	}
	opts.Obs.publish(st)
	return st, first.err
}

// scheduleOrder returns the item indices in scheduling order: input order
// without priorities, else by descending priority with ties broken by the
// lower index (the stable sort over an ascending base guarantees the tie
// rule).
func scheduleOrder(n int, pri func(i int) int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if pri == nil {
		return order
	}
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = pri(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	return order
}

// Scheduler metric names.
const (
	schedItemsMetric = "steerq_par_items_total"
	schedDepthMetric = "steerq_par_queue_depth"
)

// maxWorkerLabel bounds the per-worker label cardinality: workers beyond the
// table share the overflow label, exactly the bounded-enum discipline the
// obslabels analyzer enforces.
const maxWorkerLabel = 16

// workerLabels are the precomputed bounded label values for the per-worker
// items counter.
var workerLabels = [maxWorkerLabel + 1]string{
	"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15", "16+",
}

// SchedObs publishes scheduler telemetry into an obs.Registry: per-worker
// executed-item counters and a live queue-depth gauge (items scheduled but
// not yet started — nonzero only while a Run is in flight, which makes it a
// debug-endpoint signal and a deterministic zero in snapshots taken between
// runs).
//
// Which worker ran an item is the only schedule-dependent quantity in this
// package; under STEERQ_VCLOCK it is canonicalized to the serial schedule
// (all items on worker "0") so frozen-clock snapshot goldens stay
// byte-identical at any worker count. The Stats returned by Run always carry
// the actuals.
type SchedObs struct {
	reg    *obs.Registry
	labels []string
	queued atomic.Int64

	mu      sync.Mutex
	workers map[int]*obs.Counter
}

// NewSchedObs resolves the scheduler instruments against reg with the given
// label pairs. A nil registry returns a nil SchedObs, which records nothing.
func NewSchedObs(reg *obs.Registry, labels ...string) *SchedObs {
	if reg == nil {
		return nil
	}
	s := &SchedObs{
		reg:     reg,
		labels:  labels,
		workers: make(map[int]*obs.Counter),
	}
	reg.GaugeFunc(schedDepthMetric, func() float64 {
		return float64(s.queued.Load())
	}, labels...)
	// Resolve worker 0 eagerly so even an all-canonical snapshot carries the
	// per-worker family.
	s.workerCounter(0)
	return s
}

// workerCounter returns (resolving once) the executed-items counter for one
// worker slot, clamped into the bounded label table.
func (s *SchedObs) workerCounter(w int) *obs.Counter {
	if w > maxWorkerLabel {
		w = maxWorkerLabel
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.workers[w]; ok {
		return c
	}
	ls := make([]string, 0, len(s.labels)+2)
	ls = append(ls, s.labels...)
	worker := workerLabels[w]
	ls = append(ls, "worker", worker)
	c := s.reg.Counter(schedItemsMetric, ls...)
	s.workers[w] = c
	return c
}

// enqueue/dequeue maintain the live queue-depth gauge. Nil-safe.
func (s *SchedObs) enqueue(n int) {
	if s != nil {
		s.queued.Add(int64(n))
	}
}

func (s *SchedObs) dequeue() {
	if s != nil {
		s.queued.Add(-1)
	}
}

// publish records one run's stats, canonicalized to the serial schedule
// under the deterministic virtual clock (see the type comment). Nil-safe.
func (s *SchedObs) publish(st Stats) {
	if s == nil {
		return
	}
	if os.Getenv(obs.VClockEnv) != "" {
		s.workerCounter(0).Add(uint64(st.Items))
		return
	}
	for w, n := range st.Executed {
		if n > 0 {
			s.workerCounter(w).Add(n)
		}
	}
}
