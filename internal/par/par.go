// Package par holds the bounded index-stealing ParallelFor behind every
// batch API, shared by internal/core and the public package. Parallelism
// lives at that level — one workspace per worker, whole operations per
// item — and never inside a single ring operation: the residue-channel
// loops of ntt.Runner run serially on the calling goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor distributes indices [0, n) over up to `workers` goroutines
// (workers ≤ 0 means GOMAXPROCS). startWorker runs once per goroutine and
// returns the per-item function plus a cleanup run when that goroutine
// drains — the hook each layer uses to acquire and release one pooled
// workspace per worker. The first per-item error is returned; remaining
// items still run (errors here are per-item validation failures, not
// poison). This is the single bounded-fan-out implementation shared by the
// core and public batch APIs.
func ParallelFor(n, workers int, startWorker func() (do func(i int) error, done func())) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	runWorker := func() {
		do, done := startWorker()
		defer done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := do(i); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}
	}
	if workers == 1 {
		runWorker()
		return firstErr
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker()
		}()
	}
	wg.Wait()
	return firstErr
}
