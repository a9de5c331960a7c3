// Package parallel provides the small shared-memory parallelism helpers
// the sparse kernels and the sharded construction build on: a bounded
// worker pool over grain-sized tasks and flop-balanced span scheduling,
// both with deterministic work assignment.
//
// Determinism matters here more than in typical HPC code: the paper's
// ⊕ is not assumed commutative or associative, so parallel reductions
// must preserve the sequential fold order. The helpers therefore only
// parallelize across independent output rows/chunks and never reorder
// reductions within a row.
package parallel

import (
	"runtime"
	"sync"
)

// Workers normalizes a requested worker count: values < 1 select
// GOMAXPROCS, and the result never exceeds n (no point spawning idle
// goroutines for tiny inputs).
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// ForGrain runs fn over [0, n) split into ⌈n/grain⌉ contiguous tasks
// executed by a pool of `workers` goroutines pulling from a shared
// counter. fn receives a half-open index range [lo, hi) and must not
// touch state owned by other ranges. ForGrain blocks until all tasks
// finish. Small grains load-balance irregular tasks at the cost of more
// synchronization; with one worker (or one task) it degrades to a plain
// sequential call, so callers need no special single-threaded path.
func ForGrain(n, workers, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	tasks := (n + grain - 1) / grain
	w := Workers(workers, tasks)
	if w == 1 {
		fn(0, n)
		return
	}
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(tasks) {
			return 0, false
		}
		t := int(next)
		next++
		return t, true
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				t, ok := take()
				if !ok {
					return
				}
				lo := t * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
