package sparse

import (
	"fmt"

	"adjarray/internal/parallel"
	"adjarray/internal/semiring"
)

// EWiseAddIntoParallel is EWiseAddInto with the per-row union merge run
// across row spans balanced by merge cost (dst's plus src's row entry
// counts — the work of the two-pointer sweep). Rows are independent and
// each row's dst-left fold order is unchanged, so the result is
// bit-identical to the serial merge for any ⊕. A span reading dst
// through a row map finds its first dst row by binary search.
//
// The in-place subset fast path is preserved: when src's pattern is a
// subset of dst's and inPlace is set, spans fold src into dst's value
// buffer directly (disjoint row ranges — no locking) and dst itself is
// returned, the zero-allocation steady state of delta maintenance.
//
// workers <= 1 (or a matrix too small to split) degrades to the serial
// kernel, so callers need no special-case.
//
//adjlint:cow-writer
func EWiseAddIntoParallel[V any](dst, src *CSR[V], ops semiring.Ops[V], inPlace bool, scratch *MergeScratch[V], rowPos, colPos []int32, workers int) (*CSR[V], error) {
	w := parallel.Workers(workers, src.rows)
	if w <= 1 || len(src.colIdx) == 0 {
		return EWiseAddInto(dst, src, ops, inPlace, scratch, rowPos, colPos)
	}
	if err := checkMerge(dst, src, rowPos, colPos); err != nil {
		return nil, err
	}
	acc := through[V]{m: dst, rowPos: rowPos, colPos: colPos}

	// Load model: the union sweep of row i costs nnz(dst,i)+nnz(src,i).
	pb := getInt64(src.rows + 1)
	prefix := pb.xs
	prefix[0] = 0
	for i, next := 0, 0; i < src.rows; i++ {
		var lo, hi int32
		lo, hi, next = acc.row(i, next)
		prefix[i+1] = prefix[i] + int64(hi-lo) + int64(src.rowPtr[i+1]-src.rowPtr[i])
	}
	bounds := parallel.BalancedSpans(prefix, w)
	putInt64(pb)

	// Pass 1: per-row union counts (the exact output offsets pass 2
	// writes into) plus the pattern-subset check, span-parallel.
	rowPtr := make([]int32, src.rows+1)
	spanSubset := make([]bool, w)
	parallel.ForSpans(bounds, func(s, lo, hi int) {
		_, spanSubset[s] = countUnion(acc, src, lo, hi, rowPtr)
	})
	subset := true
	for s := 0; s < w; s++ {
		if bounds[s] < bounds[s+1] && !spanSubset[s] {
			subset = false
			break
		}
	}

	if inPlace && subset && !acc.moves(src.rows, src.cols) {
		zeros := make([]int, w)
		parallel.ForSpans(bounds, func(s, lo, hi int) {
			z := 0
			for i := lo; i < hi; i++ {
				rlo := dst.rowPtr[i]
				dc := dst.colIdx[rlo:dst.rowPtr[i+1]]
				p := 0
				for q := src.rowPtr[i]; q < src.rowPtr[i+1]; q++ {
					j := src.colIdx[q]
					for dc[p] < j {
						p++
					}
					sum := ops.Add(dst.val[int(rlo)+p], src.val[q])
					if ops.IsZero(sum) {
						z++
					}
					dst.val[int(rlo)+p] = sum
					p++
				}
			}
			zeros[s] = z
		})
		total := 0
		for _, z := range zeros {
			total += z
		}
		if total > 0 {
			pruned := dst.Prune(ops.IsZero)
			scratch.retire(dst, true)
			return pruned, nil
		}
		return dst, nil
	}

	if err := prefixCounts(rowPtr); err != nil {
		return nil, fmt.Errorf("sparse: EWiseAddInto: %w", err)
	}
	unionNNZ := int(rowPtr[src.rows])
	var colIdx []int32
	var val []V
	if scratch != nil {
		srowPtr, scol, sval := scratch.take(src.rows)
		copy(srowPtr, rowPtr)
		rowPtr = srowPtr
		colIdx, val = scol, sval
	}
	colIdx = growTo(colIdx, unionNNZ, scratch != nil)
	val = growTo(val, unionNNZ, scratch != nil)

	// Pass 2: span-parallel union merge with zero-prune, each row
	// written into its disjoint [rowPtr[i], rowPtr[i+1]) range;
	// finalizeTwoPhase compacts the (rare) pruned rows leftward.
	rowLen := make([]int32, src.rows)
	parallel.ForSpans(bounds, func(s, lo, hi int) {
		mergeUnion(acc, src, lo, hi, ops, rowPtr, rowLen, colIdx, val)
	})
	scratch.retire(dst, inPlace)
	return finalizeTwoPhase(src.rows, src.cols, rowPtr, rowLen, colIdx, val), nil
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
