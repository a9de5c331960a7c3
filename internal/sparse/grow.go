package sparse

import (
	"fmt"

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
// column slice when colPos is nil. This is the integer-index counterpart
// of assoc.Reindex — O(rows+nnz) with no string hashing and no COO sort.
func Embed[V any](m *CSR[V], rowPos, colPos []int, newRows, newCols int) (*CSR[V], error) {
	if newRows < m.rows && rowPos == nil {
		return nil, fmt.Errorf("sparse: Embed shrinks rows %d -> %d", m.rows, newRows)
	}
	if newCols < m.cols && colPos == nil {
		return nil, fmt.Errorf("sparse: Embed shrinks cols %d -> %d", m.cols, newCols)
	}
	if rowPos != nil {
		if len(rowPos) != m.rows {
			return nil, fmt.Errorf("sparse: Embed rowPos length %d, want %d", len(rowPos), m.rows)
		}
		if err := checkMonotone(rowPos, newRows, "rowPos"); err != nil {
			return nil, err
		}
	}
	if colPos != nil {
		if len(colPos) != m.cols {
			return nil, fmt.Errorf("sparse: Embed colPos length %d, want %d", len(colPos), m.cols)
		}
		if err := checkMonotone(colPos, newCols, "colPos"); err != nil {
			return nil, err
		}
	}

	colIdx := m.colIdx
	if colPos != nil {
		colIdx = make([]int, len(m.colIdx))
		for p, j := range m.colIdx {
			colIdx[p] = colPos[j]
		}
	}
	rowPtr := m.rowPtr
	switch {
	case rowPos == nil && newRows == m.rows:
		// share rowPtr as-is
	case rowPos == nil:
		rowPtr = make([]int, newRows+1)
		copy(rowPtr, m.rowPtr)
		for i := m.rows + 1; i <= newRows; i++ {
			rowPtr[i] = m.rowPtr[m.rows]
		}
	default:
		rowPtr = make([]int, newRows+1)
		next := 0
		for i := 0; i < m.rows; i++ {
			for r := next; r <= rowPos[i]; r++ {
				rowPtr[r] = m.rowPtr[i]
			}
			next = rowPos[i] + 1
		}
		for r := next; r <= newRows; r++ {
			rowPtr[r] = m.rowPtr[m.rows]
		}
	}
	return &CSR[V]{rows: newRows, cols: newCols, rowPtr: rowPtr, colIdx: colIdx, val: m.val}, nil
}

func checkMonotone(pos []int, bound int, name string) error {
	for i, p := range pos {
		if p < 0 || p >= bound {
			return fmt.Errorf("sparse: Embed %s[%d]=%d out of range [0,%d)", name, i, p, bound)
		}
		if i > 0 && pos[i-1] >= p {
			return fmt.Errorf("sparse: Embed %s not strictly increasing at %d", name, i)
		}
	}
	return nil
}

// MergeScratch recycles output backing across repeated EWiseAddInto
// calls — the double-buffer of an accumulator that is merged into
// thousands of times (internal/stream's overlay). A merge that cannot
// run in place steals the scratch slices for its result; Recycle
// donates a dead matrix's backing for the next merge. The zero value is
// ready to use.
type MergeScratch[V any] struct {
	rowPtr, colIdx []int
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

// take returns scratch-backed slices with the required row capacity,
// emptying the scratch (the result will own the backing).
func (s *MergeScratch[V]) take(rows int) (rowPtr, colIdx []int, val []V) {
	rowPtr, colIdx, val = s.rowPtr, s.colIdx[:0], s.val[:0]
	s.rowPtr, s.colIdx, s.val = nil, nil, nil
	if cap(rowPtr) < rows+1 {
		rowPtr = make([]int, rows+1)
	}
	rowPtr = rowPtr[:rows+1]
	rowPtr[0] = 0
	return rowPtr, colIdx, val
}

// EWiseAddInto computes dst ⊕= src over the union pattern, with dst's
// value on the left of every fold (dst holds the earlier contributions).
// Entries folding to the algebra's zero are pruned, matching EWiseAdd.
//
// When inPlace is true and src's pattern is a subset of dst's, the fold
// mutates dst's value buffer and returns dst itself — zero allocation,
// the steady-state path of delta maintenance where a delta touches only
// existing cells. Callers passing inPlace must own dst exclusively (no
// outstanding shared snapshots). In every other case a fresh exact-size
// matrix is returned and dst is left untouched; with a non-nil scratch
// the fresh matrix steals the scratch backing instead of allocating.
//
//adjlint:cow-writer
func EWiseAddInto[V any](dst, src *CSR[V], ops semiring.Ops[V], inPlace bool, scratch *MergeScratch[V]) (*CSR[V], error) {
	if err := sameShape(dst, src); err != nil {
		return nil, err
	}
	if len(src.colIdx) == 0 {
		return dst, nil
	}

	// Pass 1: union size and pattern-subset check in one merge sweep.
	subset := true
	unionNNZ := 0
	for i := 0; i < dst.rows; i++ {
		dc := dst.colIdx[dst.rowPtr[i]:dst.rowPtr[i+1]]
		sc := src.colIdx[src.rowPtr[i]:src.rowPtr[i+1]]
		p, q := 0, 0
		for p < len(dc) && q < len(sc) {
			switch {
			case dc[p] < sc[q]:
				p++
			case dc[p] > sc[q]:
				subset = false
				q++
			default:
				p++
				q++
			}
			unionNNZ++
		}
		if q < len(sc) {
			subset = false
		}
		unionNNZ += len(dc) - p + len(sc) - q
	}

	if inPlace && subset {
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
				s := ops.Add(dst.val[lo+p], src.val[q])
				if ops.IsZero(s) {
					zeros++
				}
				dst.val[lo+p] = s
				p++
			}
		}
		if zeros > 0 {
			return dst.Prune(ops.IsZero), nil
		}
		return dst, nil
	}

	var rowPtr, colIdx []int
	var val []V
	if scratch != nil {
		rowPtr, colIdx, val = scratch.take(dst.rows)
	} else {
		rowPtr = make([]int, dst.rows+1)
	}
	// growTo over-provisions recycled buffers by half (see pewise.go):
	// an accumulator's union size creeps up a little on almost every
	// merge, and exact-size reallocation turned every one of those
	// merges into a fresh allocation plus full copy.
	colIdx = growTo(colIdx, unionNNZ, scratch != nil)[:0]
	val = growTo(val, unionNNZ, scratch != nil)[:0]
	for i := 0; i < dst.rows; i++ {
		dlo, dhi := dst.rowPtr[i], dst.rowPtr[i+1]
		slo, shi := src.rowPtr[i], src.rowPtr[i+1]
		p, q := dlo, slo
		for p < dhi || q < shi {
			switch {
			case q >= shi || (p < dhi && dst.colIdx[p] < src.colIdx[q]):
				colIdx = append(colIdx, dst.colIdx[p])
				val = append(val, dst.val[p])
				p++
			case p >= dhi || src.colIdx[q] < dst.colIdx[p]:
				colIdx = append(colIdx, src.colIdx[q])
				val = append(val, src.val[q])
				q++
			default:
				s := ops.Add(dst.val[p], src.val[q])
				if !ops.IsZero(s) {
					colIdx = append(colIdx, dst.colIdx[p])
					val = append(val, s)
				}
				p++
				q++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR[V]{rows: dst.rows, cols: dst.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}
