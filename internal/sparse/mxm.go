package sparse

import (
	"fmt"

	"adjarray/internal/parallel"
	"adjarray/internal/semiring"
)

// Mxm — the one multiplication engine: C = A ⊕.⊗ B, two-phase
// symbolic/numeric, over flop-balanced row spans.
//
//  1. Bound: a stamp-only symbolic pass (no values, no ⊗/⊕ calls)
//     counts the distinct output columns per row, so every output row
//     gets a disjoint range of the output arrays.
//  2. The bounds are prefix-summed into rowPtr and colIdx/val are
//     allocated exactly once.
//  3. Numeric phase: the value fold runs row by row, writing each row's
//     entries directly into its [rowPtr[i], rowPtr[i+1]) range.
//
// Entries that fold to the algebra's zero are pruned at emission, so a
// row can end up shorter than its bound; finalizeTwoPhase compacts
// storage leftward in that case. Output rows are independent and each
// row folds in ascending-k order (Definition I.3) whatever span it lands
// in, so the result is bit-identical across Workers for any ⊕, including
// non-commutative and non-associative ones.

// DefaultParallelFlopFloor is the symbolic flop count below which Mxm
// runs as one inline span whatever Workers says: goroutine spawn and
// span scheduling cost a few microseconds, so a product whose whole
// flop budget is comparable finishes faster on one core. It errs low so
// medium products still parallelize.
const DefaultParallelFlopFloor = 1 << 17

// MxmOptions tunes Mxm's scheduling; the result never depends on it.
type MxmOptions struct {
	// Workers > 1 cuts the rows into that many flop-balanced spans, one
	// goroutine each; < 0 selects GOMAXPROCS; 0 or 1 runs serially.
	Workers int
	// FlopFloor is the symbolic flop count below which a parallel
	// request runs serially anyway. 0 selects DefaultParallelFlopFloor;
	// negative disables the fallback.
	FlopFloor int64
}

// Mxm computes C = A ⊕.⊗ B, pruning entries that fold to the algebra's
// zero. Scratch comes from the package pools, so repeated
// multiplications allocate only their output. A product whose symbolic
// bound passes 2³¹−1 entries is refused (ErrIndexRange) before anything
// is allocated for it.
func Mxm[V any](a, b *CSR[V], ops semiring.Ops[V], opt MxmOptions) (*CSR[V], error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	rows := a.rows
	// nil bounds = one span, run inline: no goroutine, no closure, no
	// flop prefix.
	bounds := flopSpans(a, b, opt)

	rowPtr := make([]int32, rows+1)
	if bounds == nil {
		symbolicSpan(a, b, rowPtr, 0, rows)
	} else {
		parallel.ForSpans(bounds, func(lo, hi int) { symbolicSpan(a, b, rowPtr, lo, hi) })
	}
	if err := prefixCounts(rowPtr); err != nil {
		return nil, fmt.Errorf("sparse: Mxm: symbolic bound: %w", err)
	}

	colIdx := make([]int32, rowPtr[rows])
	val := make([]V, rowPtr[rows])
	rowLen := make([]int32, rows)
	if bounds == nil {
		numericSpan(a, b, ops, rowPtr, rowLen, colIdx, val, 0, rows)
	} else {
		parallel.ForSpans(bounds, func(lo, hi int) {
			numericSpan(a, b, ops, rowPtr, rowLen, colIdx, val, lo, hi)
		})
	}
	return finalizeTwoPhase(rows, b.cols, rowPtr, rowLen, colIdx, val), nil
}

// spanWorkers resolves MxmOptions.Workers over n rows: 0 or 1 is
// serial, negative is GOMAXPROCS, and never more workers than rows.
func spanWorkers(workers, n int) int {
	if workers == 0 || workers == 1 {
		return 1
	}
	return parallel.Workers(workers, n)
}

// flopSpans cuts the rows of a·b into one span per worker of roughly
// equal work, or returns nil when the product should run as a single
// inline span (a serial request, or a flop total below the floor). The
// work of output row i is its flop count Σ_{k∈A(i,:)} nnz(B(k,:)) —
// one O(nnz(A)) sweep. Under R-MAT-style skew a handful of hub rows
// carry most of the flops, so the per-row flop prefix is cut at
// equal-work targets (parallel.BalancedSpans) rather than splitting
// rows evenly. The same spans drive both phases: the numeric pass scans
// the same flops the symbolic pass counted.
func flopSpans[V any](a, b *CSR[V], opt MxmOptions) []int {
	if spanWorkers(opt.Workers, a.rows) == 1 {
		return nil
	}
	pb := getInt64(a.rows + 1)
	defer putInt64(pb)
	prefix := pb.xs
	prefix[0] = 0
	for i := 0; i < a.rows; i++ {
		f := int64(0)
		for _, k := range a.colIdx[a.rowPtr[i]:a.rowPtr[i+1]] {
			f += int64(b.rowPtr[k+1] - b.rowPtr[k])
		}
		prefix[i+1] = prefix[i] + f
	}
	return spansOver(prefix, opt)
}

// spansOver cuts the rows under a running work total into one balanced
// span per worker — or nil, one inline span, for a serial request or a
// total below the floor.
func spansOver[T int32 | int64](prefix []T, opt MxmOptions) []int {
	rows := len(prefix) - 1
	w := spanWorkers(opt.Workers, rows)
	if w == 1 {
		return nil
	}
	floor := opt.FlopFloor
	if floor == 0 {
		floor = DefaultParallelFlopFloor
	}
	if floor > 0 && int64(prefix[rows]) < floor {
		return nil
	}
	return parallel.BalancedSpans(prefix, w)
}

// symbolicSpan writes the distinct-output-column count of rows
// [lo, hi) into rowPtr[i+1].
func symbolicSpan[V any](a, b *CSR[V], rowPtr []int32, lo, hi int) {
	sb := getStampBox(b.cols)
	for i := lo; i < hi; i++ {
		rowPtr[i+1] = symbolicRow(a, b, i, sb)
	}
	putStampBox(sb)
}

// symbolicRow counts the distinct output columns of row i of a·b by
// stamping alone (no values). A row with a single inner key needs no stamping:
// its output pattern is exactly that one b row, whose columns are
// already distinct.
func symbolicRow[V any](a, b *CSR[V], i int, s *stampBox) int32 {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	if hi-lo == 1 {
		k := a.colIdx[lo]
		return b.rowPtr[k+1] - b.rowPtr[k]
	}
	s.current++
	var count int32
	cur := s.current
	stamp := s.stamp
	for _, k := range a.colIdx[lo:hi] {
		for _, j := range b.colIdx[b.rowPtr[k]:b.rowPtr[k+1]] {
			if stamp[j] != cur {
				stamp[j] = cur
				count++
			}
		}
	}
	return count
}

// numericSpan folds rows [lo, hi) into their preallocated output
// ranges and records how many entries each row kept in rowLen.
func numericSpan[V any](a, b *CSR[V], ops semiring.Ops[V], rowPtr, rowLen, colIdx []int32, val []V, lo, hi int) {
	pool := accPoolFor[V]()
	sb := getStampBox(b.cols)
	vb := getAccBox[V](pool, b.cols)
	s := pooledSPA(sb, vb)
	rowFn := numericRowFor(ops)
	for i := lo; i < hi; i++ {
		rowLen[i] = int32(rowFn(a, b, ops, i, s, colIdx[rowPtr[i]:rowPtr[i+1]], val[rowPtr[i]:rowPtr[i+1]]))
	}
	releaseKernelScratch(pool, sb, s, vb)
}

// numericRow folds row i of a·b in the SPA and writes the surviving
// (non-zero) entries in ascending column order into dstCol/dstVal,
// returning how many were written. dst slices must have room for the
// row's symbolic count.
func numericRow[V any](a, b *CSR[V], ops semiring.Ops[V], i int, s *spa[V], dstCol []int32, dstVal []V) int {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	if hi-lo == 1 {
		// Single inner key: the row is av ⊗ (row k of b), already in
		// ascending column order — no accumulator needed. Each entry is
		// the one-term fold of Definition I.3, exactly as the SPA path
		// would produce it.
		k := a.colIdx[lo]
		av := a.val[lo]
		n := 0
		for q := b.rowPtr[k]; q < b.rowPtr[k+1]; q++ {
			v := ops.Mul(av, b.val[q])
			if !ops.IsZero(v) {
				dstCol[n] = b.colIdx[q]
				dstVal[n] = v
				n++
			}
		}
		return n
	}
	s.reset()
	s.accumulate(a, b, ops, i)
	return s.emit(ops, dstCol, dstVal)
}

// finalizeTwoPhase assembles the CSR from the bound-sized storage.
// rowPtr holds the bound offsets and rowLen the per-row counts actually
// written by the numeric phase. When every row filled its bound the
// storage is already exact and is adopted as-is; else rows are
// compacted and the slices resliced. A result that fills under half its
// bound — most cells cancelling to zero — is copied to exact size
// instead, so a long-lived product does not pin the bound.
func finalizeTwoPhase[V any](rows, cols int, rowPtr, rowLen, colIdx []int32, val []V) *CSR[V] {
	short := false
	for i := 0; i < rows; i++ {
		if rowLen[i] != rowPtr[i+1]-rowPtr[i] {
			short = true
			break
		}
	}
	if !short {
		return &CSR[V]{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
	}
	dst := compactRows(rows, rowPtr, rowLen, colIdx, val)
	colIdx, val = colIdx[:dst], val[:dst]
	if dst < cap(colIdx)/2 {
		colIdx = append(make([]int32, 0, dst), colIdx...)
		val = append(make([]V, 0, dst), val...)
	}
	return &CSR[V]{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// compactRows moves each row's rowLen[i] kept entries leftward from its
// bound offset rowPtr[i] to where the rows before it end (each
// destination precedes its source, so one forward pass is safe),
// rewrites rowPtr to the exact offsets and returns the entry count.
func compactRows[V any](rows int, rowPtr, rowLen, colIdx []int32, val []V) int {
	var dst int32
	for i := 0; i < rows; i++ {
		src := rowPtr[i]
		n := rowLen[i]
		if dst != src {
			copy(colIdx[dst:dst+n], colIdx[src:src+n])
			copy(val[dst:dst+n], val[src:src+n])
		}
		rowPtr[i] = dst
		dst += n
	}
	rowPtr[rows] = dst
	return int(dst)
}
