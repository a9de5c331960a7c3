package sparse

import (
	"fmt"

	"adjarray/internal/parallel"
	"adjarray/internal/semiring"
)

// FoldUnitRows — construction as a fold. Definition I.4 gives each
// incidence array of a graph exactly one entry per edge row, so the
// product A = Eoutᵀ ⊕.⊗ Ein collapses to a group-by over the edges,
//
//	A(s,d) = ⊕_{k: src(k)=s, dst(k)=d} Eout(k,s) ⊗ Ein(k,d)
//
// folded in ascending edge order k. Nothing is transposed and no
// one-entry row is chased through rowPtr → colIdx → val:
//
//  1. A counting sort on the row index: the prefix sum of the per-row
//     contribution counts is the output's bound rowPtr, and one stable
//     scatter moves each contribution's (column, value) into its row's
//     range of the output arrays, applying ⊗ on the way.
//  2. Per row, a stable grouping on the column index, in place: a short
//     row is insertion-sorted and its runs folded, a hub row goes
//     through the pooled sparse accumulator and adaptive emission Mxm
//     uses.
//  3. Rows that folded duplicates, or cells equal to the algebra's
//     zero, end short of their bound and are compacted as Mxm's are.
//
// Both steps keep the contributions to one cell in ascending k order, so
// ⊕ is applied exactly as Mxm applies it to (Eoutᵀ, Ein) — the
// left-to-right fold of Definition I.3 — and the result is bit-identical
// to Mxm's for any ⊕ and any Workers: output rows are independent.

// foldShortRow is the longest row grouped by insertion sort — which
// touches nothing but the row itself — and the length up to which
// sortTouched insertion-sorts too; a longer row is accumulated in the
// SPA.
const foldShortRow = 24

// FoldScratch recycles FoldUnitRows's output backing across calls — the
// fold of a maintained view, whose result only feeds a merge. The zero
// value is ready to use.
type FoldScratch[V any] struct {
	rowPtr, rowLen, colIdx []int32
	val                    []V
}

// FoldUnitRows folds n contributions, given in edge order, into the
// rows×cols matrix C(r,c) = ⊕ out[k] ⊗ in[k] over the k with row[k] = r
// and col[k] = c, ascending; cells that fold to the algebra's zero are
// pruned. A nil in means out already holds the products. opt schedules
// the rows as it schedules Mxm's (spans balanced by contribution count,
// the floor read against n); the result never depends on it.
//
// With a nil scr the result owns fresh storage. Otherwise it aliases the
// scratch and is valid until the scratch's next use; only O(1)
// bookkeeping is allocated.
func FoldUnitRows[V any](rows, cols int, row, col []int32, out, in []V, ops semiring.Ops[V], opt MxmOptions, scr *FoldScratch[V]) (*CSR[V], error) {
	n := len(row)
	if len(col) != n || len(out) != n || (in != nil && len(in) != n) {
		return nil, fmt.Errorf("sparse: FoldUnitRows got %d rows, %d columns, %d and %d values", n, len(col), len(out), len(in))
	}
	if err := checkIndexRange(rows, cols, n); err != nil {
		return nil, err
	}
	f := foldJob[V]{cols: cols, row: row, col: col, out: out, in: in, ops: ops, rowFn: foldRowFor(ops)}
	if scr == nil {
		f.rowPtr, f.rowLen = make([]int32, rows+1), make([]int32, rows)
		f.colIdx, f.val = make([]int32, n), make([]V, n)
	} else {
		scr.rowPtr, scr.rowLen = growTo(scr.rowPtr, rows+1, false), growTo(scr.rowLen, rows, false)
		scr.colIdx, scr.val = growTo(scr.colIdx, n, true), growTo(scr.val, n, true)
		f.rowPtr, f.rowLen, f.colIdx, f.val = scr.rowPtr, scr.rowLen, scr.colIdx, scr.val
		clear(f.rowPtr)
	}
	for k, r := range row {
		if uint32(r) >= uint32(rows) || uint32(col[k]) >= uint32(cols) {
			return nil, fmt.Errorf("sparse: FoldUnitRows contribution %d at (%d,%d) outside %d×%d", k, r, col[k], rows, cols)
		}
		f.rowPtr[r+1]++
	}
	for r := 0; r < rows; r++ {
		f.rowLen[r] = f.rowPtr[r]
		f.rowPtr[r+1] += f.rowPtr[r]
	}
	if bounds := spansOver(f.rowPtr, opt); bounds == nil {
		f.span(0, rows)
	} else {
		parallel.ForSpans(bounds, func(_, lo, hi int) { f.span(lo, hi) })
	}
	if scr == nil {
		return finalizeTwoPhase(rows, cols, f.rowPtr, f.rowLen, f.colIdx, f.val), nil
	}
	nnz := compactRows(rows, f.rowPtr, f.rowLen, f.colIdx, f.val)
	return &CSR[V]{rows: rows, cols: cols, rowPtr: f.rowPtr, colIdx: f.colIdx[:nnz], val: f.val[:nnz]}, nil
}

// foldJob is one FoldUnitRows call: the contributions, and the output
// arrays every span writes its own rows of. rowPtr bounds each output
// row by its contribution count; rowLen is the scatter's cursor, from
// the row's bound offset on, and then the count the row kept.
type foldJob[V any] struct {
	cols                   int
	row, col               []int32
	out, in                []V
	ops                    semiring.Ops[V]
	rowFn                  foldRowFunc[V]
	rowPtr, rowLen, colIdx []int32
	val                    []V
}

// span scatters the contributions of rows [lo, hi) into place and folds
// those rows. Every span reads the whole row column — a sequential scan,
// cheap beside the scatter — so the spans share no cursor and need no
// per-span counts. The accumulator is taken from the kernel pools by the
// first hub row: a fold of short rows — a view's few unfolded edges over
// a large universe — never asks for O(cols) scratch.
func (f *foldJob[V]) span(lo, hi int) {
	rowPtr, rowLen, colIdx, val := f.rowPtr, f.rowLen, f.colIdx, f.val
	col, out, in, mul := f.col, f.out, f.in, f.ops.Mul
	first, end := int32(lo), int32(hi)
	for k, r := range f.row { // ascending k: Definition I.3 fold order
		if r < first || r >= end {
			continue
		}
		q := rowLen[r]
		rowLen[r]++
		colIdx[q] = col[k]
		if in == nil {
			val[q] = out[k]
		} else {
			val[q] = mul(out[k], in[k])
		}
	}
	pool := accPoolFor[V]()
	var s *spa[V]
	var sb *stampBox
	var vb *accBox[V]
	for r := lo; r < hi; r++ {
		a, b := rowPtr[r], rowPtr[r+1]
		if a == b {
			rowLen[r] = 0
			continue
		}
		if b-a > foldShortRow && s == nil {
			sb, vb = getStampBox(f.cols), getAccBox[V](pool, f.cols)
			s = pooledSPA(sb, vb)
		}
		rowLen[r] = int32(f.rowFn(f.ops, s, colIdx[a:b], val[a:b]))
	}
	if s != nil {
		releaseKernelScratch(pool, sb, s, vb)
	}
}

// foldRowFunc folds one output row in place: cols/vals hold the row's
// contributions in edge order and receive its surviving cells in
// ascending column order; the count is returned. s is only there for a
// row longer than foldShortRow.
type foldRowFunc[V any] func(ops semiring.Ops[V], s *spa[V], cols []int32, vals []V) int

// foldRowFor selects the row fold as numericRowFor selects Mxm's.
func foldRowFor[V any](ops semiring.Ops[V]) foldRowFunc[V] {
	if ops.Kernel() == semiring.KernelPlusTimesF64 {
		if fn, ok := any(foldRowFunc[float64](foldRowPlusTimesF64)).(foldRowFunc[V]); ok {
			return fn
		}
	}
	return foldRow[V]
}

// sortRowStable insertion-sorts a short row by column; equal columns
// keep their edge order.
func sortRowStable[V any](cols []int32, vals []V) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i
		for ; j > 0 && cols[j-1] > c; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = c, v
	}
}

func foldRow[V any](ops semiring.Ops[V], s *spa[V], cols []int32, vals []V) int {
	if len(cols) <= foldShortRow {
		sortRowStable(cols, vals)
		n := 0
		for i := 0; i < len(cols); {
			c, v := cols[i], vals[i]
			for i++; i < len(cols) && cols[i] == c; i++ {
				v = ops.Add(v, vals[i])
			}
			if !ops.IsZero(v) {
				cols[n], vals[n] = c, v
				n++
			}
		}
		return n
	}
	s.reset()
	acc, stamp, cur := s.acc, s.stamp, s.current
	s.minJ, s.maxJ = cols[0], cols[0]
	for q, j := range cols {
		if stamp[j] != cur {
			stamp[j] = cur
			acc[j] = vals[q]
			s.touched = append(s.touched, j)
			s.minJ, s.maxJ = min(s.minJ, j), max(s.maxJ, j)
		} else {
			acc[j] = ops.Add(acc[j], vals[q])
		}
	}
	return s.emit(ops, cols, vals)
}

// foldRowPlusTimesF64 is foldRow monomorphized for +.* over float64
// under the contract of specialized.go: same fold order, same pruning
// (v != 0), arithmetic inlined.
func foldRowPlusTimesF64(_ semiring.Ops[float64], s *spa[float64], cols []int32, vals []float64) int {
	if len(cols) <= foldShortRow {
		sortRowStable(cols, vals)
		n := 0
		for i := 0; i < len(cols); {
			c, v := cols[i], vals[i]
			for i++; i < len(cols) && cols[i] == c; i++ {
				v += vals[i]
			}
			if v != 0 {
				cols[n], vals[n] = c, v
				n++
			}
		}
		return n
	}
	s.reset()
	acc, stamp, cur := s.acc, s.stamp, s.current
	s.minJ, s.maxJ = cols[0], cols[0]
	for q, j := range cols {
		if stamp[j] != cur {
			stamp[j] = cur
			acc[j] = vals[q]
			s.touched = append(s.touched, j)
			s.minJ, s.maxJ = min(s.minJ, j), max(s.maxJ, j)
		} else {
			acc[j] += vals[q]
		}
	}
	return emitPlusTimesF64(s, cols, vals)
}
