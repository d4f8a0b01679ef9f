package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The figure drivers fan independent simulation runs out over a bounded
// worker pool. Every work item is hermetic — it builds its own simulator
// from a seed derived deterministically from the experiment seed and the
// item index, and writes only to its own slot of a pre-sized result slice —
// so the assembled figures are byte-identical for any worker count,
// including 1. The determinism test in experiments_test.go locks that in.

// AutoParallel returns a sensible default worker count for callers that
// want "use the machine": GOMAXPROCS.
func AutoParallel() int { return runtime.GOMAXPROCS(0) }

// ForEachItem exposes the bounded worker pool to commands that fan their
// own independent runs out (cmd/moresim's spec lists). fn must confine its
// writes to per-index state.
func ForEachItem(n, workers int, fn func(i int)) { forEach(n, workers, fn) }

// forEach runs fn(0..n-1) on up to `workers` goroutines. fn must confine
// its writes to per-index state. With workers <= 1 (an unset
// Options.Parallel included) the loop runs inline on the caller's goroutine.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
