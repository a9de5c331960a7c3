// Package sparse provides the hand-rolled sparse-matrix kernels the
// library is built on: CSR storage generic over the value type, COO
// construction, transpose, sub-matrix extraction, element-wise merges,
// the SpGEMM (sparse × sparse multiply) engine Mxm with its merge
// reference and dense oracle, and FoldUnitRows, the group-by that the
// product of two unit-row (incidence) matrices collapses to.
//
// Go has no sparse linear-algebra ecosystem, so these kernels are
// written from scratch in the style of the GraphBLAS reference
// implementations. One departure from textbook SpGEMM matters for this
// paper: ⊕ is NOT assumed associative or commutative, so every kernel
// folds the contributions to an output entry strictly in ascending
// inner-key (k) order — the ordered ⊕ over k ∈ K of Definition I.3.
// All of them therefore produce identical results even for
// order-sensitive ⊕ operations; in particular FoldUnitRows on the
// columns of (Eout, Ein) and Mxm on (Eoutᵀ, Ein) are bit-identical,
// and which one runs (assoc.Correlate decides, from the operands'
// shape) never shows in a result.
//
// An index is an int32, once: a position in a finite key set
// (Definition I.1), the width the interner's ids, the edge log and the
// ADJCKPT colIdx section already have. rowPtr, colIdx, every position
// map and every id list a kernel takes or returns are []int32, so a
// stored entry of a CSR[float64] costs 12 bytes and a row 4. Dimensions
// and scalar arguments stay int. The price is a cap: a matrix has at
// most 2³¹−1 rows, columns and stored entries, and whatever assembles
// one refuses more with an error wrapping ErrIndexRange (index.go) —
// NewCSR, FromDense, FoldUnitRows, Embed/ConcatRows/EWiseAddInto and
// Mxm's symbolic bound by returning it, Empty and COO.ToCSR, which
// return no error, by panicking with it.
package sparse

import (
	"fmt"
	"slices"
)

// CSR is a compressed-sparse-row matrix over values of type V. Column
// indices within each row are strictly increasing. Stored entries are
// conventionally non-zero under the governing algebra, but CSR itself
// does not interpret values; use Prune to drop explicit zeros.
//
// The zero value is an empty 0×0 matrix. CSR values are immutable by
// convention once built; all methods return new matrices. Snapshot
// layers alias these slices, so in-place element writes are restricted
// to the annotated builder/merge writers.
//
//adjlint:cow
type CSR[V any] struct {
	rows, cols int
	rowPtr     []int32 // len rows+1
	colIdx     []int32 // len nnz
	val        []V     // len nnz
	// unitRows: every row stores exactly one entry (rowPtr[i] = i), the
	// shape of a graph's incidence array. Noted where construction walks
	// rowPtr anyway; false only costs speed.
	unitRows bool
}

// NewCSR assembles a CSR from raw components, validating the structural
// invariants (monotone rowPtr, in-bounds strictly-increasing columns).
// The slices are retained, not copied.
func NewCSR[V any](rows, cols int, rowPtr, colIdx []int32, val []V) (*CSR[V], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %d×%d", rows, cols)
	}
	if err := checkIndexRange(rows, cols, len(colIdx)); err != nil {
		return nil, err
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	m := &CSR[V]{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
	var err error
	if m.unitRows, err = m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Empty returns an all-zero rows×cols matrix. Dimensions past the
// index range panic with the ErrIndexRange error.
func Empty[V any](rows, cols int) *CSR[V] {
	mustFitIndex(rows, cols, 0)
	return &CSR[V]{rows: rows, cols: cols, rowPtr: make([]int32, rows+1)}
}

// Rows returns the number of rows.
func (m *CSR[V]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR[V]) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR[V]) NNZ() int { return len(m.colIdx) }

// UnitRows reports whether m is known to store exactly one entry in
// every row (Definition I.4's incidence shape), which lets
// assoc.Correlate fold its columns instead of multiplying.
func (m *CSR[V]) UnitRows() bool { return m.unitRows }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR[V]) RowNNZ(i int) int { return int(m.rowPtr[i+1] - m.rowPtr[i]) }

// Row returns the column indices and values of row i as sub-slice views
// into the matrix storage. Callers must not mutate them.
func (m *CSR[V]) Row(i int) (cols []int32, vals []V) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// Parts returns the matrix's backing arrays — what a serializer writes.
// They are shared with the matrix (and whatever snapshots alias it) and
// must not be written.
func (m *CSR[V]) Parts() (rowPtr, colIdx []int32, val []V) { return m.rowPtr, m.colIdx, m.val }

// Pattern is the structure of a CSR without its values: a []struct{}
// occupies nothing, so a Pattern costs its index arrays and its
// Transpose 4 bytes per stored entry. It is the form a mask takes (Mxm)
// and what the structural graph kernels read.
type Pattern = CSR[struct{}]

// Pattern returns m's structure, sharing (not copying) its index
// arrays.
func (m *CSR[V]) Pattern() *Pattern {
	return &Pattern{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx,
		val: make([]struct{}, len(m.colIdx)), unitRows: m.unitRows}
}

// At returns the stored value at (i, j) and whether an entry exists.
func (m *CSR[V]) At(i, j int) (V, bool) {
	var zero V
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return zero, false
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	if p, ok := slices.BinarySearch(cols, int32(j)); ok {
		return m.val[int(lo)+p], true
	}
	return zero, false
}

// Iterate calls fn for every stored entry in row-major order.
func (m *CSR[V]) Iterate(fn func(i, j int, v V)) {
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			fn(i, int(m.colIdx[p]), m.val[p])
		}
	}
}

// IterateUntil visits stored entries in row-major order until fn
// returns false, and reports whether the sweep ran to completion.
// Unlike Iterate it never touches entries past the stop point, so a
// bounded scan over a large matrix is O(visited), not O(nnz).
func (m *CSR[V]) IterateUntil(fn func(i, j int, v V) bool) bool {
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if !fn(i, int(m.colIdx[p]), m.val[p]) {
				return false
			}
		}
	}
	return true
}

// Clone deep-copies the matrix.
func (m *CSR[V]) Clone() *CSR[V] {
	out := &CSR[V]{rows: m.rows, cols: m.cols,
		rowPtr:   slices.Clone(m.rowPtr),
		colIdx:   slices.Clone(m.colIdx),
		val:      slices.Clone(m.val),
		unitRows: m.unitRows}
	return out
}

// Map applies fn to every stored value, preserving the pattern. The
// writes land on a fresh Clone, never the receiver.
//
//adjlint:cow-writer
func (m *CSR[V]) Map(fn func(i, j int, v V) V) *CSR[V] {
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		for p := out.rowPtr[i]; p < out.rowPtr[i+1]; p++ {
			out.val[p] = fn(i, int(out.colIdx[p]), out.val[p])
		}
	}
	return out
}

// Prune drops stored entries for which isZero reports true, producing a
// matrix whose explicit pattern matches its algebraic support.
func (m *CSR[V]) Prune(isZero func(V) bool) *CSR[V] {
	rowPtr := make([]int32, m.rows+1)
	colIdx := make([]int32, 0, len(m.colIdx))
	val := make([]V, 0, len(m.val))
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if !isZero(m.val[p]) {
				colIdx = append(colIdx, m.colIdx[p])
				val = append(val, m.val[p])
			}
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	return &CSR[V]{rows: m.rows, cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Transpose returns mᵀ using a counting sort over columns: O(nnz + cols).
// This is the paper's Definition I.2 at the storage level.
func (m *CSR[V]) Transpose() *CSR[V] {
	rowPtr := make([]int32, m.cols+1)
	for _, j := range m.colIdx {
		rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int32, len(m.colIdx))
	val := make([]V, len(m.val))
	next := slices.Clone(rowPtr[:m.cols])
	for i := int32(0); int(i) < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.colIdx[p]
			q := next[j]
			next[j]++
			colIdx[q] = i
			val[q] = m.val[p]
		}
	}
	return &CSR[V]{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// TransposeOnto returns mᵀ laid onto its own pattern t — what
// m.Pattern().Transpose() returned: the result shares t's index arrays
// and only the values move, in one counting pass over m. t's shape and
// the length of each of its rows are checked against m; that those rows
// hold m's columns and not some others of the same lengths is the
// caller's word.
func (m *CSR[V]) TransposeOnto(t *Pattern) (*CSR[V], error) {
	if t.rows != m.cols || t.cols != m.rows || len(t.colIdx) != len(m.colIdx) {
		return nil, fmt.Errorf("sparse: TransposeOnto: a %d×%d pattern of %d entries is not the transpose of a %d×%d matrix of %d",
			t.rows, t.cols, len(t.colIdx), m.rows, m.cols, len(m.colIdx))
	}
	val := make([]V, len(m.val))
	next := slices.Clone(t.rowPtr[:t.rows])
	for p, j := range m.colIdx { // row-major: each column's entries in ascending row order
		q := next[j]
		if int(q) == len(val) {
			break // a row of t is shorter than m's column; reported below
		}
		next[j]++
		val[q] = m.val[p]
	}
	for j, end := range next {
		if end != t.rowPtr[j+1] {
			return nil, fmt.Errorf("sparse: TransposeOnto: row %d of the pattern does not have the length of the matrix's column", j)
		}
	}
	return &CSR[V]{rows: t.rows, cols: t.cols, rowPtr: t.rowPtr, colIdx: t.colIdx, val: val}, nil
}

// ExtractRows returns the sub-matrix consisting of the given rows (in
// the given order, which need not be sorted). Row indices must be in
// range.
func (m *CSR[V]) ExtractRows(rows []int32) (*CSR[V], error) {
	rowPtr := make([]int32, len(rows)+1)
	nnz := 0
	for _, i := range rows {
		if i < 0 || int(i) >= m.rows {
			return nil, fmt.Errorf("sparse: row %d out of range [0,%d)", i, m.rows)
		}
		nnz += m.RowNNZ(int(i))
	}
	// Rows may repeat, so the selection can outgrow the matrix.
	if err := checkIndexRange(len(rows), m.cols, nnz); err != nil {
		return nil, err
	}
	colIdx := make([]int32, 0, nnz)
	val := make([]V, 0, nnz)
	for r, i := range rows {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		colIdx = append(colIdx, m.colIdx[lo:hi]...)
		val = append(val, m.val[lo:hi]...)
		rowPtr[r+1] = int32(len(colIdx))
	}
	return &CSR[V]{rows: len(rows), cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, val: val, unitRows: m.unitRows}, nil
}

// ExtractCols returns the sub-matrix consisting of the given columns,
// renumbered 0..len(cols)-1 in the given order. cols must be strictly
// increasing (keeping per-row column order intact without a sort).
func (m *CSR[V]) ExtractCols(cols []int32) (*CSR[V], error) {
	// Dense remap (-1 = dropped) instead of a hash map: the remap sits on
	// the key-alignment hot path and a flat array lookup per stored entry
	// is a constant-factor win over map access.
	remap := make([]int32, m.cols)
	for j := range remap {
		remap[j] = -1
	}
	for n, j := range cols {
		if j < 0 || int(j) >= m.cols {
			return nil, fmt.Errorf("sparse: column %d out of range [0,%d)", j, m.cols)
		}
		if n > 0 && cols[n-1] >= j {
			return nil, fmt.Errorf("sparse: ExtractCols indices must be strictly increasing")
		}
		remap[j] = int32(n)
	}
	rowPtr := make([]int32, m.rows+1)
	var colIdx []int32
	var val []V
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if n := remap[m.colIdx[p]]; n >= 0 {
				colIdx = append(colIdx, n)
				val = append(val, m.val[p])
			}
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	return &CSR[V]{rows: m.rows, cols: len(cols), rowPtr: rowPtr, colIdx: colIdx, val: val,
		unitRows: m.unitRows && len(colIdx) == len(m.colIdx)}, nil // no entry dropped
}

// Equal reports whether two matrices have identical dimensions, pattern,
// and values under eq.
func Equal[V any](a, b *CSR[V], eq func(V, V) bool) bool {
	if a.rows != b.rows || a.cols != b.cols || len(a.colIdx) != len(b.colIdx) {
		return false
	}
	for i := 0; i <= a.rows; i++ {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for p := range a.colIdx {
		if a.colIdx[p] != b.colIdx[p] || !eq(a.val[p], b.val[p]) {
			return false
		}
	}
	return true
}

// SamePattern reports whether two matrices have identical dimensions and
// non-zero structure, ignoring values. This is the paper's observation
// that "the pattern of edges resulting from array multiplication is
// generally preserved for various semirings".
func SamePattern[V, W any](a *CSR[V], b *CSR[W]) bool {
	if a.rows != b.rows || a.cols != b.cols || len(a.colIdx) != len(b.colIdx) {
		return false
	}
	for i := 0; i <= a.rows; i++ {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for p := range a.colIdx {
		if a.colIdx[p] != b.colIdx[p] {
			return false
		}
	}
	return true
}

// ToDense expands the matrix into a dense row-major [][]V with zero for
// missing entries.
func (m *CSR[V]) ToDense(zero V) [][]V {
	out := make([][]V, m.rows)
	for i := range out {
		row := make([]V, m.cols)
		for j := range row {
			row[j] = zero
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			row[m.colIdx[p]] = m.val[p]
		}
		out[i] = row
	}
	return out
}
