// Package parallel provides the small shared-memory parallelism helpers
// the sparse kernels build on: worker-count normalisation and
// flop-balanced span scheduling, with deterministic work assignment.
//
// Determinism matters here more than in typical HPC code: the paper's
// ⊕ is not assumed commutative or associative, so parallel reductions
// must preserve the sequential fold order. The helpers therefore only
// parallelize across independent output rows/chunks and never reorder
// reductions within a row.
package parallel

import "runtime"

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
