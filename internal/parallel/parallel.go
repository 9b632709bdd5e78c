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
// through a bounded pool of w workers. Item i runs exactly when items
// 0..i-w all returned true, so once an item reports false or fails, at most
// w-1 later items still run. pred must have no side effects beyond its
// answer. Which items run depends only on the answers and w, never on
// scheduling, so a run's work (and its allocation count) is reproducible;
// an item waits while one w or more places before it is still running. A
// pred error yields (false, err), the lowest-indexed error when several
// items fail.
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
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		next int // the next item to claim
		// done is the number of items at the front, 0..done-1, that have
		// returned; failAt is the lowest item known to have returned false
		// or failed (n while none has).
		done, failAt = 0, n
		returned     = make([]bool, n)
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for next < n {
				i := next
				next++
				// Item i may run once items 0..i-workers have returned
				// true; a failure among them settles that it must not.
				for done <= i-workers && failAt > i-workers {
					cond.Wait()
				}
				if failAt <= i-workers {
					return
				}
				mu.Unlock()
				ok, err := pred(i)
				mu.Lock()
				errs[i] = err
				if (err != nil || !ok) && i < failAt {
					failAt = i
				}
				returned[i] = true
				for done < n && returned[done] {
					done++
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return false, err
	}
	return failAt == n, nil
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
