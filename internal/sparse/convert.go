package sparse

// Convert maps stored values through f, producing a matrix with the
// same pattern over a new value type. The structural arrays (rowPtr,
// colIdx) are shared with the source, which is safe because CSR
// matrices are immutable by convention.
func Convert[V, W any](m *CSR[V], f func(i, j int, v V) W) *CSR[W] {
	val := make([]W, len(m.val))
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			val[p] = f(i, int(m.colIdx[p]), m.val[p])
		}
	}
	return &CSR[W]{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, val: val}
}

// ReduceRows folds each row's stored values with ⊕ in ascending column
// order, returning one value per row and a mask of rows that had at
// least one entry.
func ReduceRows[V any](m *CSR[V], add func(V, V) V) (vals []V, nonEmpty []bool) {
	vals = make([]V, m.rows)
	nonEmpty = make([]bool, m.rows)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if !nonEmpty[i] {
				vals[i] = m.val[p]
				nonEmpty[i] = true
			} else {
				vals[i] = add(vals[i], m.val[p])
			}
		}
	}
	return vals, nonEmpty
}
