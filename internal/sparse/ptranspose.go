package sparse

import "adjarray/internal/parallel"

// TransposeParallel is Transpose with the scatter phase parallelized
// over source rows, split into nnz-balanced spans (the per-row scatter
// cost is its entry count, so hub-heavy rows get their own span instead
// of serializing one worker). Each output slot is written exactly once
// (the per-column cursor is claimed via pre-partitioned counts), so no
// locking of the value array is needed. workers follows
// MxmOptions.Workers: 0 or 1 is the serial Transpose.
func TransposeParallel[V any](m *CSR[V], workers int) *CSR[V] {
	w := spanWorkers(workers, m.rows)
	if w == 1 || m.NNZ() == 0 {
		return m.Transpose()
	}
	bounds := parallel.BalancedSpans(m.rowPtr, w)
	// Per-span column counts, then prefix-sum to give every span a
	// private cursor range per column — a two-pass parallel counting
	// sort that keeps source-row order within each column.
	counts := make([][]int32, w)
	parallel.ForSpans(bounds, func(s, lo, hi int) {
		c := make([]int32, m.cols)
		for p := m.rowPtr[lo]; p < m.rowPtr[hi]; p++ {
			c[m.colIdx[p]]++
		}
		counts[s] = c
	})
	rowPtr := make([]int32, m.cols+1)
	for j := 0; j < m.cols; j++ {
		var total int32
		for b := 0; b < w; b++ {
			if counts[b] == nil {
				continue
			}
			t := counts[b][j]
			counts[b][j] = total // becomes the span's cursor base
			total += t
		}
		rowPtr[j+1] = total
	}
	for j := 0; j < m.cols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int32, m.NNZ())
	val := make([]V, m.NNZ())
	parallel.ForSpans(bounds, func(s, lo, hi int) {
		cursor := counts[s]
		for i := int32(lo); i < int32(hi); i++ {
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				j := m.colIdx[p]
				q := rowPtr[j] + cursor[j]
				cursor[j]++
				colIdx[q] = i
				val[q] = m.val[p]
			}
		}
	})
	return &CSR[V]{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, val: val}
}
