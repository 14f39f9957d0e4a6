package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"steerq/internal/bitvec"
)

// runAnalyzed runs AnalyzedJobs on a fresh Runner at the given worker count
// and returns the analyses plus the captured progress log.
func runAnalyzed(t *testing.T, workers int) ([]analysisSummary, string) {
	t.Helper()
	cfg := tinyConfig()
	cfg.Workers = workers
	var log bytes.Buffer
	cfg.Log = &log
	r := NewRunner(cfg)
	out := r.AnalyzedJobs("A", 0)
	if len(out) == 0 {
		t.Fatalf("workers=%d: no analyzed jobs; test is vacuous", workers)
	}
	sums := make([]analysisSummary, len(out))
	for i, a := range out {
		s := analysisSummary{
			job:        a.Job.ID,
			span:       a.Span,
			candidates: len(a.Candidates),
			defaultRT:  a.Default.Metrics.RuntimeSec,
		}
		for _, c := range a.Candidates {
			s.costSum += c.EstCost
		}
		for _, tr := range a.Trials {
			s.sigs = append(s.sigs, tr.Signature)
			s.runtimes = append(s.runtimes, tr.Metrics.RuntimeSec)
		}
		sums[i] = s
	}
	return sums, log.String()
}

type analysisSummary struct {
	job        string
	span       bitvec.Vector
	candidates int
	defaultRT  float64
	costSum    float64
	sigs       []bitvec.Vector
	runtimes   []float64
}

// TestAnalyzedJobsParallelDeterminism asserts the experiment substrate is
// bit-for-bit identical across worker counts, including the progress log.
func TestAnalyzedJobsParallelDeterminism(t *testing.T) {
	serial, serialLog := runAnalyzed(t, 1)
	for _, workers := range []int{2, 8} {
		parallel, parallelLog := runAnalyzed(t, workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d analyses vs %d serial", workers, len(parallel), len(serial))
		}
		for i := range serial {
			a, b := serial[i], parallel[i]
			if a.job != b.job || a.span != b.span || a.candidates != b.candidates ||
				a.defaultRT != b.defaultRT || a.costSum != b.costSum {
				t.Fatalf("workers=%d: analysis %d differs: %+v vs %+v", workers, i, a, b)
			}
			if len(a.sigs) != len(b.sigs) {
				t.Fatalf("workers=%d: analysis %d trial count differs", workers, i)
			}
			for j := range a.sigs {
				if a.sigs[j] != b.sigs[j] || a.runtimes[j] != b.runtimes[j] {
					t.Fatalf("workers=%d: analysis %d trial %d differs", workers, i, j)
				}
			}
		}
		if parallelLog != serialLog {
			t.Fatalf("workers=%d: progress log differs from serial run:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serialLog, parallelLog)
		}
	}
}

// TestZipfPipelineParallelDeterminism is the metamorphic acceptance test for
// the scheduler on skewed traffic: a full pipeline run over the Zipf
// hot-template workload, rendered to bytes, must be identical at 1 and 8
// workers. The hot templates concentrate compiles on few footprints, which is
// exactly where the fan-out and the merge phase see the most traffic. The
// scheduler's Items and Merges counters are included in the rendering
// because they must not depend on the worker count.
func TestZipfPipelineParallelDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		cfg := tinyConfig()
		cfg.Workers = workers
		cfg.ZipfSkew = 1.2
		var log bytes.Buffer
		cfg.Log = &log
		r := NewRunner(cfg)
		out := r.AnalyzedJobs("A", 0)
		if len(out) == 0 {
			t.Fatalf("workers=%d: zipf run produced no analyses; test is vacuous", workers)
		}
		var buf bytes.Buffer
		for _, a := range out {
			fmt.Fprintf(&buf, "job %s span %v default %v/%v\n",
				a.Job.ID, a.Span, a.Default.Signature, a.Default.Metrics)
			for _, c := range a.Candidates {
				fmt.Fprintf(&buf, "  cand %v cost %v sig %v\n", c.Config, c.EstCost, c.Signature)
			}
			for _, s := range a.Selected {
				fmt.Fprintf(&buf, "  sel %v\n", s.Config)
			}
			for _, tr := range a.Trials {
				fmt.Fprintf(&buf, "  trial %v sig %v cost %v metrics %v\n",
					tr.Config, tr.Signature, tr.EstCost, tr.Metrics)
			}
			fmt.Fprintf(&buf, "  footprint %+v sched items=%d merges=%d\n",
				a.Footprint, a.Sched.Items, a.Sched.Merges)
		}
		buf.WriteString("--- log ---\n")
		buf.Write(log.Bytes())
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("zipf pipeline run not byte-identical at 1 vs 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			serial, parallel)
	}
}

// TestAblationsParallelDeterminism covers the fanned-out ablation and
// extension loops at two worker counts.
func TestAblationsParallelDeterminism(t *testing.T) {
	type results struct {
		rvg  *AblationRandomVsGuided
		span *AblationSpanSearch
	}
	runAll := func(workers int) results {
		cfg := tinyConfig()
		cfg.Workers = workers
		r := NewRunner(cfg)
		rvg, err := r.RandomVsGuided("A", 0, 4, 3)
		if err != nil {
			t.Fatalf("workers=%d: RandomVsGuided: %v", workers, err)
		}
		span, err := r.SpanSearch("A", 0, 3, 10)
		if err != nil {
			t.Fatalf("workers=%d: SpanSearch: %v", workers, err)
		}
		return results{rvg: rvg, span: span}
	}
	serial := runAll(1)
	parallel := runAll(8)
	if len(serial.rvg.Rows) == 0 {
		t.Fatal("RandomVsGuided produced no rows; test is vacuous")
	}
	if len(serial.rvg.Rows) != len(parallel.rvg.Rows) {
		t.Fatalf("RandomVsGuided row count differs: %d vs %d", len(serial.rvg.Rows), len(parallel.rvg.Rows))
	}
	for i := range serial.rvg.Rows {
		if serial.rvg.Rows[i] != parallel.rvg.Rows[i] {
			t.Fatalf("RandomVsGuided row %d differs: %+v vs %+v", i, serial.rvg.Rows[i], parallel.rvg.Rows[i])
		}
	}
	if *serial.span != *parallel.span {
		t.Fatalf("SpanSearch differs: %+v vs %+v", serial.span, parallel.span)
	}
}
