package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// Every index in [0, n) runs exactly once, whatever fails along the way,
// and the error returned is one of the items' errors. (Which failure is
// recorded first depends on scheduling when workers > 1; the serial test
// below pins the order.)
func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 7, 100, 1000} {
			counts := make([]atomic.Int32, n)
			itemErrs := make(map[error]bool)
			errs := make([]error, n)
			for i := 1; i < n; i += 3 {
				errs[i] = fmt.Errorf("item %d", i)
				itemErrs[errs[i]] = true
			}
			err := ParallelFor(n, workers, func() (func(int) error, func()) {
				return func(i int) error {
					counts[i].Add(1)
					return errs[i]
				}, func() {}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers %d n %d: index %d ran %d times", workers, n, i, c)
				}
			}
			if (err == nil) != (len(itemErrs) == 0) || (err != nil && !itemErrs[err]) {
				t.Fatalf("workers %d n %d: err %v, want one of the items' errors", workers, n, err)
			}
		}
	}
}

// With one worker the items run in order, so the first error is the
// lowest failing index.
func TestParallelForFirstErrorSerial(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ParallelFor(10, 1, func() (func(int) error, func()) {
		return func(i int) error {
			switch i {
			case 4:
				return errA
			case 6:
				return errB
			}
			return nil
		}, func() {}
	})
	if err != errA {
		t.Fatalf("err = %v, want %v", err, errA)
	}
}

// startWorker and done run once per started worker, workers is clamped to
// n, and n = 0 starts nothing.
func TestParallelForWorkers(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{0, 4, 0},
		{1, 4, 1},
		{3, 8, 3},
		{100, 4, 4},
		{5, 1, 1},
	} {
		var started, done atomic.Int32
		err := ParallelFor(tc.n, tc.workers, func() (func(int) error, func()) {
			started.Add(1)
			return func(int) error { return nil }, func() { done.Add(1) }
		})
		if err != nil {
			t.Fatal(err)
		}
		if s, d := int(started.Load()), int(done.Load()); s != tc.want || d != tc.want {
			t.Errorf("n %d workers %d: started %d, done %d, want %d each", tc.n, tc.workers, s, d, tc.want)
		}
	}
}
