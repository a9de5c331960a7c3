package parallel

import (
	"sort"
	"sync"
)

// Flop-balanced span scheduling. Splitting n rows evenly across workers
// loads each worker with the same number of ROWS, but SpGEMM work per
// row is its flop count — and under the R-MAT skew of real workloads a
// handful of hub rows carry most of the flops, so even-row splitting
// leaves all but one worker idle. BalancedSpans instead cuts the prefix
// sum of per-row work at equal-work targets, so every span carries
// roughly total/spans units regardless of how rows are skewed.

// BalancedSpans partitions [0, n) (n = len(prefix)-1) into at most
// `spans` contiguous spans of roughly equal weight. prefix is the
// inclusive prefix-sum of per-index weights: prefix[0] = 0 and
// prefix[i+1]-prefix[i] is the weight of index i (non-decreasing).
//
// The result b has len(b) = spans+1 with b[0] = 0 and b[spans] = n;
// span s covers [b[s], b[s+1]) (possibly empty when a single index
// outweighs the target — a span is never split mid-index). Boundary s
// is the smallest i with prefix[i] ≥ total·s/spans, found by binary
// search, so the whole partition costs O(spans·log n).
func BalancedSpans[T int32 | int64](prefix []T, spans int) []int {
	n := len(prefix) - 1
	if spans < 1 {
		spans = 1
	}
	b := make([]int, spans+1)
	b[spans] = n
	if n <= 0 || spans == 1 {
		return b
	}
	total := prefix[n]
	if total <= 0 {
		// Zero total weight: fall back to even index split so callers
		// still get a valid (if arbitrary) partition.
		for s := 1; s < spans; s++ {
			b[s] = n * s / spans
		}
		return b
	}
	for s := 1; s < spans; s++ {
		// Target cumulative weight for the first s spans; computed as
		// total/spans·s with the division last to avoid overflow for
		// large totals (total ≤ 2^63/spans in any realistic workload).
		target := total / T(spans) * T(s)
		i := sort.Search(n, func(i int) bool { return prefix[i] >= target })
		if i < b[s-1] {
			i = b[s-1] // keep boundaries monotone
		}
		b[s] = i
	}
	return b
}

// ForSpans runs fn over the spans of a BalancedSpans partition, one
// goroutine per non-empty span, and blocks until all spans finish. With
// one non-empty span it degrades to a plain call.
func ForSpans(bounds []int, fn func(lo, hi int)) {
	live := 0
	lastS := -1
	for s := 0; s+1 < len(bounds); s++ {
		if bounds[s] < bounds[s+1] {
			live++
			lastS = s
		}
	}
	if live == 0 {
		return
	}
	if live == 1 {
		fn(bounds[lastS], bounds[lastS+1])
		return
	}
	var wg sync.WaitGroup
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
