package sparse

import (
	"fmt"
	"slices"

	"adjarray/internal/semiring"
)

// Growth kernels for incrementally maintained matrices: coordinate-space
// embedding and an in-place-capable ⊕-merge. These are
// the storage layer of the delta-batch identity
//
//	A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:]
//
// where a small delta is folded into a large accumulator thousands of
// times. The batch kernels above rebuild whole matrices per call; the
// kernels here share or mutate existing backing wherever the caller can
// prove it safe.

// Embed maps m into a larger coordinate space: the result is
// newRows×newCols with row i of m living at rowPos[i] and column j
// renumbered colPos[j]. Position maps must be strictly increasing (the
// embedding preserves order, so no row needs re-sorting); nil means the
// identity. Rows not hit by rowPos are empty.
//
// Values are never copied: the result shares m's value slice, plus its
// column slice when colPos is nil, and an embedding that moves nothing
// into a space of m's own shape is m itself. This is the integer-index
// counterpart of assoc.Reindex — O(rows+nnz) with no string hashing and
// no COO sort.
func Embed[V any](m *CSR[V], rowPos, colPos []int32, newRows, newCols int) (*CSR[V], error) {
	if err := checkEmbed(m, rowPos, colPos, newRows, newCols); err != nil {
		return nil, err
	}
	if rowPos == nil && colPos == nil && newRows == m.rows && newCols == m.cols {
		return m, nil
	}

	colIdx := m.colIdx
	if colPos != nil {
		colIdx = make([]int32, len(m.colIdx))
		for p, j := range m.colIdx {
			colIdx[p] = colPos[j]
		}
	}
	rowPtr := m.rowPtr
	switch {
	case rowPos == nil && newRows == m.rows:
		// share rowPtr as-is
	case rowPos == nil:
		rowPtr = make([]int32, newRows+1)
		copy(rowPtr, m.rowPtr)
		for i := m.rows + 1; i <= newRows; i++ {
			rowPtr[i] = m.rowPtr[m.rows]
		}
	default:
		rowPtr = make([]int32, newRows+1)
		var next int32
		for i := 0; i < m.rows; i++ {
			for r := next; r <= rowPos[i]; r++ {
				rowPtr[r] = m.rowPtr[i]
			}
			next = rowPos[i] + 1
		}
		for r := int(next); r <= newRows; r++ {
			rowPtr[r] = m.rowPtr[m.rows]
		}
	}
	return &CSR[V]{rows: newRows, cols: newCols, rowPtr: rowPtr, colIdx: colIdx, val: m.val}, nil
}

// checkEmbed validates one matrix's position maps against the space it
// is being mapped into, which must be one an index can number: a map has
// one strictly increasing, in-range position per row (column) of m;
// without one, m must fit as it is.
func checkEmbed[V any](m *CSR[V], rowPos, colPos []int32, newRows, newCols int) error {
	if err := checkIndexRange(newRows, newCols, 0); err != nil {
		return err
	}
	if newRows < m.rows && rowPos == nil {
		return fmt.Errorf("sparse: Embed shrinks rows %d -> %d", m.rows, newRows)
	}
	if newCols < m.cols && colPos == nil {
		return fmt.Errorf("sparse: Embed shrinks cols %d -> %d", m.cols, newCols)
	}
	if rowPos != nil {
		if len(rowPos) != m.rows {
			return fmt.Errorf("sparse: Embed rowPos length %d, want %d", len(rowPos), m.rows)
		}
		if err := checkMonotone(rowPos, newRows, "rowPos"); err != nil {
			return err
		}
	}
	if colPos != nil {
		if len(colPos) != m.cols {
			return fmt.Errorf("sparse: Embed colPos length %d, want %d", len(colPos), m.cols)
		}
		if err := checkMonotone(colPos, newCols, "colPos"); err != nil {
			return err
		}
	}
	return nil
}

func checkMonotone(pos []int32, bound int, name string) error {
	for i, p := range pos {
		if p < 0 || int(p) >= bound {
			return fmt.Errorf("sparse: Embed %s[%d]=%d out of range [0,%d)", name, i, p, bound)
		}
		if i > 0 && pos[i-1] >= p {
			return fmt.Errorf("sparse: Embed %s not strictly increasing at %d", name, i)
		}
	}
	return nil
}

// ConcatRows gathers row-disjoint parts into one rows×cols matrix: row i
// of parts[k] lands at row rowPos[k][i] with its columns renumbered
// through colPos[k] — Embed's maps, one pair per part, checked the same
// way. The parts' rows are counted into the result's rowPtr, prefixed,
// and each stored row is copied once into an exact-size result; no two
// values ever meet, so there is no ⊕ and no operator pair to ask for.
// That rests on the parts owning disjoint rows, which is checked, not
// assumed: a row stored by two parts is refused with a
// *RowConflictError naming it (a part's EMPTY row claims nothing). One
// part is Embed: its values are shared, not copied.
//
//adjlint:cow-writer
func ConcatRows[V any](parts []*CSR[V], rowPos, colPos [][]int32, rows, cols int) (*CSR[V], error) {
	if len(rowPos) != len(parts) || len(colPos) != len(parts) {
		return nil, fmt.Errorf("sparse: ConcatRows has %d parts, %d row maps, %d column maps", len(parts), len(rowPos), len(colPos))
	}
	if len(parts) == 1 {
		return Embed(parts[0], rowPos[0], colPos[0], rows, cols)
	}
	nnz := 0
	for k, m := range parts {
		if err := checkEmbed(m, rowPos[k], colPos[k], rows, cols); err != nil {
			return nil, fmt.Errorf("sparse: ConcatRows part %d: %w", k, err)
		}
		nnz += len(m.colIdx)
	}
	if err := checkIndexRange(rows, cols, nnz); err != nil {
		return nil, fmt.Errorf("sparse: ConcatRows: %w", err)
	}
	rowPtr := make([]int32, rows+1)
	for k, m := range parts {
		for i := 0; i < m.rows; i++ {
			n := m.rowPtr[i+1] - m.rowPtr[i]
			if n == 0 {
				continue
			}
			r := rowAt(rowPos[k], i)
			if rowPtr[r+1] != 0 {
				return nil, &RowConflictError{Row: r, First: firstOwner(parts, rowPos, r), Second: k}
			}
			rowPtr[r+1] = n
		}
	}
	for r := 0; r < rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int32, rowPtr[rows])
	val := make([]V, rowPtr[rows])
	for k, m := range parts {
		cp := colPos[k]
		for i := 0; i < m.rows; i++ {
			lo, hi := m.rowPtr[i], m.rowPtr[i+1]
			if lo == hi {
				continue
			}
			at := rowPtr[rowAt(rowPos[k], i)]
			copy(val[at:], m.val[lo:hi])
			if cp == nil {
				copy(colIdx[at:], m.colIdx[lo:hi])
				continue
			}
			dst := colIdx[at:]
			for p, j := range m.colIdx[lo:hi] {
				dst[p] = cp[j]
			}
		}
	}
	return &CSR[V]{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// rowAt is where row i lands under a position map; nil is the identity.
func rowAt(pos []int32, i int) int {
	if pos == nil {
		return i
	}
	return int(pos[i])
}

// firstOwner finds the lowest part storing output row r — the error
// path's look-up, so ConcatRows keeps no owner per row.
func firstOwner[V any](parts []*CSR[V], rowPos [][]int32, r int) int {
	for k, m := range parts {
		i := r
		if rowPos[k] != nil {
			var ok bool
			if i, ok = slices.BinarySearch(rowPos[k], int32(r)); !ok {
				continue
			}
		}
		if i < m.rows && m.rowPtr[i+1] > m.rowPtr[i] {
			return k
		}
	}
	return -1
}

// RowConflictError is ConcatRows' refusal: output row Row is stored by
// parts First and Second, so the parts are not row-disjoint and putting
// them side by side would lose one of the two rows.
type RowConflictError struct {
	Row, First, Second int
}

func (e *RowConflictError) Error() string {
	return fmt.Sprintf("sparse: ConcatRows: row %d is stored by part %d and by part %d", e.Row, e.First, e.Second)
}

// MergeScratch recycles output backing across repeated EWiseAddInto
// calls — the double-buffer of an accumulator that is merged into
// thousands of times (internal/stream's overlay). A merge that cannot
// run in place steals the scratch slices for its result; Recycle
// donates a dead matrix's backing for the next merge. The zero value is
// ready to use.
type MergeScratch[V any] struct {
	rowPtr, colIdx []int32
	val            []V
}

// Recycle donates m's backing to the scratch. The caller must own m
// exclusively — no snapshot, slice view, or append chain may still
// reference it — because the next merge will overwrite the storage.
func (s *MergeScratch[V]) Recycle(m *CSR[V]) {
	if m == nil {
		return
	}
	s.rowPtr = m.rowPtr[:0]
	s.colIdx = m.colIdx[:0]
	s.val = m.val[:0]
}

// retire donates dst's backing once a merge that was handed dst to
// consume (inPlace) has put its result somewhere else — only the kernel
// knows whether the result still aliases dst. A nil scratch recycles
// nothing.
func (s *MergeScratch[V]) retire(dst *CSR[V], consumed bool) {
	if s != nil && consumed {
		s.Recycle(dst)
	}
}

// take returns scratch-backed slices with the required row capacity,
// emptying the scratch (the result will own the backing).
func (s *MergeScratch[V]) take(rows int) (rowPtr, colIdx []int32, val []V) {
	rowPtr, colIdx, val = s.rowPtr, s.colIdx[:0], s.val[:0]
	s.rowPtr, s.colIdx, s.val = nil, nil, nil
	if cap(rowPtr) < rows+1 {
		rowPtr = make([]int32, rows+1)
	}
	rowPtr = rowPtr[:rows+1]
	rowPtr[0] = 0
	return rowPtr, colIdx, val
}

// through is a merge's accumulator read in the coordinates of the
// result: row i of m lands at rowPos[i], column j at colPos[j]; a nil map
// leaves that side where it is (m may still be smaller than the result —
// its rows or columns are then a prefix of it). The maps are what a
// key-set union yields, so merging into a key space that grew needs no
// embedded copy of the accumulator first.
type through[V any] struct {
	m              *CSR[V]
	rowPos, colPos []int32
}

// row returns the storage range of the row of m landing at result row r
// — empty when none does — and the cursor for r+1, given the cursor for r
// (0 for row 0: a sweep visits the result's rows in order).
func (t through[V]) row(r, next int) (lo, hi int32, after int) {
	if next < t.m.rows && (t.rowPos == nil || int(t.rowPos[next]) == r) {
		return t.m.rowPtr[next], t.m.rowPtr[next+1], next + 1
	}
	return 0, 0, next
}

// moves reports whether m differs from the result's space at all; an
// accumulator that does not can be folded into in place.
func (t through[V]) moves(rows, cols int) bool {
	return t.rowPos != nil || t.colPos != nil || t.m.rows != rows || t.m.cols != cols
}

// countUnion sweeps dst ⊕ src for the size of the union pattern and
// whether src's pattern lies inside dst's.
func countUnion[V any](dst through[V], src *CSR[V]) (total int, subset bool) {
	subset = true
	dcol, cp := dst.m.colIdx, dst.colPos
	next := 0
	for i := 0; i < src.rows; i++ {
		var p, dhi int32
		p, dhi, next = dst.row(i, next)
		q, shi := src.rowPtr[i], src.rowPtr[i+1]
		var n int32
		for p < dhi && q < shi {
			j := dcol[p]
			if cp != nil {
				j = cp[j]
			}
			switch sj := src.colIdx[q]; {
			case j < sj:
				p++
			case j > sj:
				subset = false
				q++
			default:
				p++
				q++
			}
			n++
		}
		if q < shi {
			subset = false
		}
		total += int(n + dhi - p + shi - q)
	}
	return total, subset
}

// mergeUnion writes dst ⊕ src: dst's value on the left of every fold,
// folds equal to the algebra's zero pruned, dst's columns renumbered on
// the way. Rows are packed one after another from offset 0 and
// rowPtr[i+1] is set as each ends.
//
//adjlint:cow-writer
func mergeUnion[V any](dst through[V], src *CSR[V], ops semiring.Ops[V], rowPtr, colIdx []int32, val []V) {
	dcol, dval, cp := dst.m.colIdx, dst.m.val, dst.colPos
	var at int32
	next := 0
	for i := 0; i < src.rows; i++ {
		var p, dhi int32
		p, dhi, next = dst.row(i, next)
		q, shi := src.rowPtr[i], src.rowPtr[i+1]
		for p < dhi && q < shi {
			j := dcol[p]
			if cp != nil {
				j = cp[j]
			}
			switch sj := src.colIdx[q]; {
			case j < sj:
				colIdx[at], val[at] = j, dval[p]
				at++
				p++
			case j > sj:
				colIdx[at], val[at] = sj, src.val[q]
				at++
				q++
			default:
				if s := ops.Add(dval[p], src.val[q]); !ops.IsZero(s) {
					colIdx[at], val[at] = j, s
					at++
				}
				p++
				q++
			}
		}
		// What is left of either row has nothing to meet: most rows of an
		// accumulator meet no delta entry at all and are copied whole.
		if cp == nil {
			copy(colIdx[at:], dcol[p:dhi])
		} else {
			rest := colIdx[at:]
			for k, j := range dcol[p:dhi] {
				rest[k] = cp[j]
			}
		}
		at += int32(copy(val[at:], dval[p:dhi]))
		copy(colIdx[at:], src.colIdx[q:shi])
		at += int32(copy(val[at:], src.val[q:shi]))
		rowPtr[i+1] = at
	}
}

// checkMerge validates dst and its maps against src, whose shape is the
// result's.
func checkMerge[V any](dst, src *CSR[V], rowPos, colPos []int32) error {
	if (rowPos == nil && dst.rows > src.rows) || (colPos == nil && dst.cols > src.cols) {
		return &ShapeError{ARows: dst.rows, ACols: dst.cols, BRows: src.rows, BCols: src.cols}
	}
	return checkEmbed(dst, rowPos, colPos, src.rows, src.cols)
}

// EWiseAddInto computes dst ⊕= src over the union pattern, with dst's
// value on the left of every fold (dst holds the earlier contributions).
// Entries folding to the algebra's zero are pruned, matching EWiseAdd.
//
// src spans the result's space. dst may live in a smaller one: rowPos
// and colPos say where its rows and columns sit in src's (Embed's maps,
// checked the same way; nil is the identity), and the merge reads dst
// through them — the result is what embedding dst first would give,
// without the embedded copy.
//
// When inPlace is true, dst already spans the result's space and src's
// pattern is a subset of dst's, the fold mutates dst's value buffer and
// returns dst itself — zero allocation, the steady-state path of delta
// maintenance where a delta touches only existing cells. Callers passing
// inPlace must own dst exclusively (no outstanding shared snapshots) and
// treat it as consumed. In every other case a fresh matrix is returned
// and dst's storage is left untouched (an empty src yields dst itself, or
// dst embedded); with a non-nil scratch the fresh matrix steals the
// scratch backing instead of allocating, and a consumed dst that the
// result does not alias is donated to the scratch for the next merge —
// an accumulator merged into repeatedly ping-pongs between two buffers.
//
//adjlint:cow-writer
func EWiseAddInto[V any](dst, src *CSR[V], ops semiring.Ops[V], inPlace bool, scratch *MergeScratch[V], rowPos, colPos []int32) (*CSR[V], error) {
	if err := checkMerge(dst, src, rowPos, colPos); err != nil {
		return nil, err
	}
	if len(src.colIdx) == 0 {
		return Embed(dst, rowPos, colPos, src.rows, src.cols)
	}
	acc := through[V]{m: dst, rowPos: rowPos, colPos: colPos}

	// Pass 1: union size and pattern-subset check in one merge sweep.
	unionNNZ, subset := countUnion(acc, src)

	if inPlace && subset && !acc.moves(src.rows, src.cols) {
		zeros := 0
		for i := 0; i < dst.rows; i++ {
			lo := dst.rowPtr[i]
			dc := dst.colIdx[lo:dst.rowPtr[i+1]]
			p := 0
			for q := src.rowPtr[i]; q < src.rowPtr[i+1]; q++ {
				j := src.colIdx[q]
				for dc[p] < j {
					p++
				}
				s := ops.Add(dst.val[int(lo)+p], src.val[q])
				if ops.IsZero(s) {
					zeros++
				}
				dst.val[int(lo)+p] = s
				p++
			}
		}
		if zeros > 0 {
			pruned := dst.Prune(ops.IsZero)
			scratch.retire(dst, true)
			return pruned, nil
		}
		return dst, nil
	}

	if err := checkIndexRange(src.rows, src.cols, unionNNZ); err != nil {
		return nil, fmt.Errorf("sparse: EWiseAddInto: %w", err)
	}
	var rowPtr, colIdx []int32
	var val []V
	if scratch != nil {
		rowPtr, colIdx, val = scratch.take(src.rows)
	} else {
		rowPtr = make([]int32, src.rows+1)
	}
	colIdx = growTo(colIdx, unionNNZ, scratch != nil)
	val = growTo(val, unionNNZ, scratch != nil)
	mergeUnion(acc, src, ops, rowPtr, colIdx, val)
	scratch.retire(dst, inPlace)
	n := rowPtr[src.rows]
	return &CSR[V]{rows: src.rows, cols: src.cols, rowPtr: rowPtr, colIdx: colIdx[:n], val: val[:n]}, nil
}

// growTo returns s resized to length n. With headroom set, a recycled
// buffer that proved too small is replaced by one half again as large as
// asked: the accumulator it serves grows a little on almost every merge,
// and exact-size replacement turned every one of those merges into a
// fresh allocation plus full copy. With nothing to recycle the new buffer
// is exact — a merge that allocates because a snapshot holds the previous
// result (every read-after-write) has no next merge to save for.
func growTo[T any](s []T, n int, headroom bool) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := n
	if headroom && cap(s) > 0 {
		c = n + n/2
	}
	return make([]T, n, c)
}
