// Package parallel provides a bounded worker pool for the embarrassingly
// parallel parts of the evaluation: independent (strategy, app, trace)
// simulation cells and per-trace generation. Results are collected in
// submission order, so callers that render tables from them produce output
// that depends only on the inputs — never on goroutine scheduling — and a
// run with N workers is byte-identical to a run with one.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size used when a caller passes workers <= 0:
// one worker per available CPU (GOMAXPROCS).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clamp resolves the effective pool size for n items.
func clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn over the indices 0..n-1 on a bounded pool and returns the
// results in index order. Every item runs even if some fail; the returned
// error is the lowest-indexed one, so failure reporting is as deterministic
// as success. fn must be safe for concurrent invocation when workers > 1.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	workers = clamp(workers, n)
	if workers == 1 {
		// Inline execution keeps single-worker runs free of goroutine
		// overhead and makes workers=1 a faithful serial baseline.
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(i)
		}
		return results, firstError(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return results, firstError(errs)
}

// All reports whether pred holds for every index 0..n-1, fanning the calls
// through a bounded pool. Once any call reports false or fails, remaining
// unstarted items are skipped, so pred must have no side effects beyond its
// answer: the boolean result is deterministic, but which items run on a
// false outcome is not. A pred error yields (false, err); when several
// items error the lowest-indexed completed one is returned.
func All(workers, n int, pred func(i int) (bool, error)) (bool, error) {
	workers = clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			ok, err := pred(i)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ok, err := pred(i)
				if err != nil {
					errs[i] = err
					stopped.Store(true)
					return
				}
				if !ok {
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return false, err
	}
	return !stopped.Load(), nil
}

// firstError returns the lowest-indexed non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
