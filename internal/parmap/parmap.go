// Package parmap provides the ordered parallel map shared by the
// experiment harnesses (internal/experiments) and perfbench.
//
// Every simulation in this repository is an isolated deterministic
// state machine — its own fabric, collector and seeded RNG streams —
// so running points concurrently cannot change any result, only the
// wall-clock time of producing it.  Results come back in input order,
// which is what lets a parallel figure match a serial one byte for
// byte.
package parmap

import (
	"errors"
	"runtime"
	"sync"
)

// Map runs f over items on up to workers goroutines (workers ≤ 0 means
// GOMAXPROCS) and returns the results in input order.  Every item is
// processed even when some fail; the returned error is errors.Join of
// every per-item error in input order, so no failure is masked by an
// earlier one.
func Map[T, R any](items []T, workers int, f func(T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: same goroutine, same order, no channels —
		// identical to a plain loop by construction.
		for i, item := range items {
			results[i], errs[i] = f(item)
		}
		return results, errors.Join(errs...)
	}

	// Each worker writes only its own slots, so results land in input
	// order without a reorder buffer.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = f(items[i])
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}
