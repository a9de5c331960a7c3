package sparse

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"adjarray/internal/semiring"
)

// SpGEMM — sparse matrix × sparse matrix under an operator pair ⊕.⊗.
//
// Three implementations: Mxm (mxm.go) is the engine; MulMerge below is
// the independent sparse reference the engine is tested against; and
// MulDense is the Definition I.3 oracle.
//
// Contract shared by all three: the contributions to output entry
// C(i,j) = ⊕_k A(i,k) ⊗ B(k,j) are folded strictly in ascending k order,
// matching the ordered reduction of Definition I.3, so results agree
// even for non-associative / non-commutative ⊕.
//
// Sparse multiplication inherently skips k where A(i,k) or B(k,j) is
// missing; this silently *assumes* the annihilator and ⊕-identity laws.
// MulDense implements the literal Definition I.3 over every k
// (including zeros) and is the ground truth the theorem machinery
// compares against: Theorem II.1 is precisely the condition under which
// the sparse shortcut is sound for adjacency construction.

func checkDims[V any](a, b *CSR[V]) error {
	if a.cols != b.rows {
		return fmt.Errorf("sparse: dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols)
	}
	return nil
}

// spa is a sparse accumulator: dense value scratch plus an occupancy
// stamp, reusable across rows without clearing. minJ/maxJ bound the
// touched column span so emission can choose between a dense flag-scan
// and sorting (see emit). A stamp is a generation count, not an index:
// a pooled box outlives 2³¹ rows, so it stays an int.
type spa[V any] struct {
	acc        []V
	stamp      []int
	current    int
	touched    []int32
	minJ, maxJ int32
}

func (s *spa[V]) reset() {
	s.current++
	s.touched = s.touched[:0]
	s.minJ, s.maxJ = -1, -1
}

// accumulate folds row i of a·b into the SPA in ascending k order — the
// Definition I.3 fold order. The CSR arrays
// are indexed directly (rather than through Row) to keep the per-flop
// cost down to the two algebra calls.
func (s *spa[V]) accumulate(a, b *CSR[V], ops semiring.Ops[V], i int) {
	bPtr, bCol, bVal := b.rowPtr, b.colIdx, b.val
	acc, stamp, cur := s.acc, s.stamp, s.current
	touched := s.touched
	minJ, maxJ := s.minJ, s.maxJ
	for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ { // ascending k: Definition I.3 fold order
		k := a.colIdx[p]
		av := a.val[p]
		for q := bPtr[k]; q < bPtr[k+1]; q++ {
			j := bCol[q]
			prod := ops.Mul(av, bVal[q])
			if stamp[j] != cur {
				stamp[j] = cur
				acc[j] = prod
				touched = append(touched, j)
				if minJ < 0 || j < minJ {
					minJ = j
				}
				if j > maxJ {
					maxJ = j
				}
			} else {
				acc[j] = ops.Add(acc[j], prod)
			}
		}
	}
	s.touched = touched
	s.minJ, s.maxJ = minJ, maxJ
}

// adaptiveSpanFactor scales the sort-cost model behind the adaptive
// emission choice: a dense flag-scan of the touched span costs O(span)
// while sorting the touched list costs O(t·log t), so the scan is
// chosen when span ≤ factor·t·⌈log₂ t⌉. 0 disables the scan path
// entirely (every row sorts) — the pre-adaptive behaviour, kept as a
// package variable for the ablation benchmark.
var adaptiveSpanFactor = 2

// scanBeatsSort decides the adaptive emission strategy for a row with
// touched count t spanning span columns.
func scanBeatsSort(span, t int) bool {
	f := adaptiveSpanFactor
	return f > 0 && span <= f*t*bits.Len(uint(t))
}

// sortTouched sorts a touched list in place: straight insertion sort
// for short hypersparse rows — beating the general sort's pivot and
// partition machinery at that size — and slices.Sort beyond.
func sortTouched(xs []int32) {
	if len(xs) <= 24 {
		sortInts(xs)
		return
	}
	slices.Sort(xs)
}

func sortInts(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// emit writes the accumulated row into dstCol/dstVal in ascending
// column order, pruning algebraic zeros; it returns the entry count.
// The scan strategy fuses ordering and emission into one pass over the
// span; the sort strategy orders touched then emits.
func (s *spa[V]) emit(ops semiring.Ops[V], dstCol []int32, dstVal []V) int {
	t := len(s.touched)
	if t == 0 {
		return 0
	}
	n := 0
	if t > 1 && scanBeatsSort(int(s.maxJ-s.minJ)+1, t) {
		for j := s.minJ; j <= s.maxJ; j++ {
			if s.stamp[j] == s.current {
				if v := s.acc[j]; !ops.IsZero(v) {
					dstCol[n] = j
					dstVal[n] = v
					n++
				}
			}
		}
		return n
	}
	sortTouched(s.touched)
	for _, j := range s.touched {
		if v := s.acc[j]; !ops.IsZero(v) {
			dstCol[n] = j
			dstVal[n] = v
			n++
		}
	}
	return n
}

// MulMerge is SpGEMM by expansion and stable merge: gather every
// (j, product) contribution of the row in generation (ascending-k)
// order, stable-sort by j, then fold runs. Highest constant factor but
// the simplest to verify, and it shares no accumulator with Mxm: the
// independent sparse reference of the property tests and of the
// conformance sweep's reference-merge path.
func MulMerge[V any](a, b *CSR[V], ops semiring.Ops[V]) (*CSR[V], error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	type contrib struct {
		j int32
		v V
	}
	out := newRowAppender[V](a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		var cs []contrib
		aCols, aVals := a.Row(i)
		for p, k := range aCols {
			av := aVals[p]
			bCols, bVals := b.Row(int(k))
			for q, j := range bCols {
				cs = append(cs, contrib{j: j, v: ops.Mul(av, bVals[q])})
			}
		}
		// Stable: contributions to the same j stay in ascending-k order.
		sort.SliceStable(cs, func(x, y int) bool { return cs[x].j < cs[y].j })
		for x := 0; x < len(cs); {
			y := x + 1
			acc := cs[x].v
			for y < len(cs) && cs[y].j == cs[x].j {
				acc = ops.Add(acc, cs[y].v)
				y++
			}
			if !ops.IsZero(acc) {
				out.append(cs[x].j, acc)
			}
			x = y
		}
		out.endRow()
	}
	return out.finish(), nil
}

// MulDense evaluates Definition I.3 literally: for every output pair
// (i,j), fold A(i,k) ⊗ B(k,j) over EVERY k — including absent entries,
// which are materialized as the algebra's zero. This is the mathematical
// ground truth against which the sparse kernels' implicit use of the
// annihilator/identity laws is judged; it is O(rows·inner·cols) and
// meant for small verification instances only.
//
// The result keeps entries that are algebraically non-zero.
func MulDense[V any](a, b *CSR[V], ops semiring.Ops[V]) (*CSR[V], error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	da := a.ToDense(ops.Zero)
	db := b.ToDense(ops.Zero)
	out := newRowAppender[V](a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var acc V
			for k := 0; k < a.cols; k++ {
				prod := ops.Mul(da[i][k], db[k][j])
				if k == 0 {
					acc = prod
				} else {
					acc = ops.Add(acc, prod)
				}
			}
			if a.cols == 0 {
				acc = ops.Zero
			}
			if !ops.IsZero(acc) {
				out.append(int32(j), acc)
			}
		}
		out.endRow()
	}
	return out.finish(), nil
}

// rowAppender assembles a CSR row by row.
type rowAppender[V any] struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	val        []V
}

func newRowAppender[V any](rows, cols int) *rowAppender[V] {
	return &rowAppender[V]{rows: rows, cols: cols, rowPtr: make([]int32, 1, rows+1)}
}

func (r *rowAppender[V]) append(j int32, v V) {
	r.colIdx = append(r.colIdx, j)
	r.val = append(r.val, v)
}

func (r *rowAppender[V]) endRow() {
	r.rowPtr = append(r.rowPtr, int32(len(r.colIdx)))
}

func (r *rowAppender[V]) finish() *CSR[V] {
	for len(r.rowPtr) < r.rows+1 {
		r.rowPtr = append(r.rowPtr, int32(len(r.colIdx)))
	}
	return &CSR[V]{rows: r.rows, cols: r.cols, rowPtr: r.rowPtr, colIdx: r.colIdx, val: r.val}
}
