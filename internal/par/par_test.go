package par_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"steerq/internal/par"
)

func TestWorkersResolution(t *testing.T) {
	if got := par.Workers(3); got != 3 {
		t.Fatalf("explicit Workers(3) = %d", got)
	}
	t.Setenv(par.EnvWorkers, "5")
	if got := par.Workers(0); got != 5 {
		t.Fatalf("env Workers(0) = %d, want 5", got)
	}
	if got := par.Workers(2); got != 2 {
		t.Fatalf("explicit beats env: Workers(2) = %d", got)
	}
	t.Setenv(par.EnvWorkers, "not-a-number")
	if got := par.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("bad env Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	t.Setenv(par.EnvWorkers, "-4")
	if got := par.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative env Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestMapSlotsResultsByInputIndex(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		out, err := par.Map(workers, items, func(i, item int) (string, error) {
			return fmt.Sprintf("%d*2=%d", item, item*2), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(items) {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, s := range out {
			if want := fmt.Sprintf("%d*2=%d", i, i*2); s != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 257
	var counts [n]atomic.Int32
	if err := par.ForEach(7, n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestFirstErrorIsLowestIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		err := par.ForEach(workers, 64, func(i int) error {
			switch i {
			case 50:
				return errB
			case 13:
				return errA
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: error %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

func TestErrorDoesNotStopOtherIndices(t *testing.T) {
	var ran atomic.Int32
	err := par.ForEach(4, 32, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 32 {
		t.Fatalf("ran %d of 32 indices", got)
	}
}

func TestEmptyAndZeroInputs(t *testing.T) {
	if err := par.ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	out, err := par.Map(4, []int(nil), func(int, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("nil items: out=%v err=%v", out, err)
	}
}

// TestMapEdgeCases is the table-driven edge-case suite for the pool: empty
// input, every item failing, and failures mixed with successes, at one worker
// and at a parallel worker count.
func TestMapEdgeCases(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("item %d failed", i) }
	cases := []struct {
		name     string
		n        int
		failWhen func(i int) bool
		wantErr  string // substring of the lowest-index failure; "" = no error
		wantOut  func(i int) int
	}{
		{
			name: "zero-items",
			n:    0, failWhen: func(int) bool { return false },
			wantErr: "", wantOut: nil,
		},
		{
			name: "single-item",
			n:    1, failWhen: func(int) bool { return false },
			wantErr: "", wantOut: func(i int) int { return i * i },
		},
		{
			name: "all-error",
			n:    37, failWhen: func(int) bool { return true },
			wantErr: "item 0 failed", wantOut: func(int) int { return 0 },
		},
		{
			name: "mixed-errors-keep-successful-slots",
			n:    64, failWhen: func(i int) bool { return i%5 == 3 },
			wantErr: "item 3 failed",
			wantOut: func(i int) int {
				if i%5 == 3 {
					return 0 // failed slots keep the zero value
				}
				return i * i
			},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				items := make([]int, tc.n)
				for i := range items {
					items[i] = i
				}
				out, err := par.Map(workers, items, func(i, item int) (int, error) {
					if tc.failWhen(i) {
						return 0, boom(i)
					}
					return item * item, nil
				})
				if tc.wantErr == "" && err != nil {
					t.Fatalf("err = %v", err)
				}
				if tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
					t.Fatalf("err = %v, want %q (the lowest failing index)", err, tc.wantErr)
				}
				if len(out) != tc.n {
					t.Fatalf("len(out) = %d, want %d", len(out), tc.n)
				}
				for i, v := range out {
					if want := tc.wantOut(i); v != want {
						t.Fatalf("out[%d] = %d, want %d", i, v, want)
					}
				}
			})
		}
	}
}

func TestItemContext(t *testing.T) {
	parent := context.Background()
	ctx, cancel := par.ItemContext(parent, 0)
	if ctx != parent {
		t.Fatal("zero timeout should return the parent context unchanged")
	}
	cancel() // must be a safe no-op

	ctx, cancel = par.ItemContext(parent, 10*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("positive timeout did not set a deadline")
	}
	if until := time.Until(dl); until <= 0 || until > 10*time.Millisecond {
		t.Fatalf("deadline %v from now, want (0, 10ms]", until)
	}
	<-ctx.Done()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
}
