// Package parallel provides the small shared-memory parallelism helpers
// the sparse kernels build on: bounded worker pools and chunked parallel
// loops with deterministic work assignment.
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

// For runs fn over [0, n) split into contiguous chunks, one goroutine
// per worker. fn receives a half-open index range [lo, hi) and must not
// touch state owned by other ranges. For blocks until all chunks finish.
// With workers <= 1 (or tiny n) it degrades to a plain sequential call,
// so callers need no special single-threaded path.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForGrain is For with an explicit grain size: [0, n) is split into
// ⌈n/grain⌉ tasks executed by a pool of `workers` goroutines pulling
// from a shared counter. Small grains load-balance irregular tasks at
// the cost of more synchronization.
func ForGrain(n, workers, grain int, fn func(lo, hi int)) {
	ForGrainWorker(n, workers, grain, func(_, lo, hi int) { fn(lo, hi) })
}

// ForGrainWorker is ForGrain exposing the identity of the worker
// goroutine running each task as a stable index in [0, workers). Kernels
// use it to pool per-worker scratch state (sparse accumulators) across
// the many grain-tasks a worker executes, instead of allocating scratch
// per task. Each worker index is owned by exactly one goroutine for the
// whole call, so fn may touch worker-indexed state without locking.
func ForGrainWorker(n, workers, grain int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	tasks := (n + grain - 1) / grain
	w := Workers(workers, tasks)
	if w == 1 {
		fn(0, 0, n)
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
		go func(worker int) {
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
				fn(worker, lo, hi)
			}
		}(i)
	}
	wg.Wait()
}
