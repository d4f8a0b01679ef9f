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

// ForEach runs fn(0..n-1) on up to `workers` goroutines. fn must confine
// its writes to per-index state. With workers <= 1 (an unset
// Options.Parallel included) the loop runs inline on the caller's goroutine.
func ForEach(n, workers int, fn func(i int)) {
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

// sweep is the grid under every figure: it runs fn for each (variant, pair)
// cell over opts.Parallel workers and returns out[variant][pair]. Pair i
// runs with seed opts.Seed + 1000·i under every variant, so the variants of
// a figure compare on the same workloads; a cell that draws its own
// workload sets its own o.Seed.
func sweep[T any](variants, pairs int, opts Options, fn func(v, i int, o Options) T) [][]T {
	out := make([][]T, variants)
	for v := range out {
		out[v] = make([]T, pairs)
	}
	ForEach(variants*pairs, opts.workers(), func(it int) {
		v, i := it/pairs, it%pairs
		o := opts
		o.Seed = opts.Seed + int64(1000*i)
		out[v][i] = fn(v, i, o)
	})
	return out
}
