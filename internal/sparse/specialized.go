package sparse

import (
	"adjarray/internal/semiring"
)

// Specialized monomorphic kernels for built-in scalar operator pairs.
//
// The generic kernels reach ⊕ and ⊗ through the closure fields of
// semiring.Ops — an indirect call per flop that Go cannot devirtualize
// (gcshape stenciling dispatches generic method calls through a
// dictionary, so a type-parameter "algebra" does not help either; this
// was measured, not assumed). For the canonical arithmetic pair +.*
// over float64 — the production default for adjacency construction —
// the numeric row below inlines the arithmetic, which speeds the whole
// multiplication up several-fold.
//
// Correctness contract: a specialized row must be BIT-IDENTICAL to the
// generic numericRow for its pair — same ascending-k fold order, same
// pruning rule. For +.*: Add is IEEE +, Mul is IEEE ×, and
// IsZero(v) = value.Float64Equal(v, 0) reduces to v == 0 (NaN is never
// equal to 0 and 0 is not NaN). The dispatch is keyed on the
// semiring.ScalarKernel hint, which only the semiring package's own
// constructors can set — never on the display name.
//
// The symbolic phase needs no specialization: it is value-free, so its
// float64 instantiation already contains no indirect calls.

// numericRowFunc is the per-row numeric-phase kernel signature shared
// by the generic and specialized implementations. Selecting the row
// function once per multiplication costs one indirect call per row —
// amortized over the row's flops — instead of two per flop.
type numericRowFunc[V any] func(a, b *CSR[V], ops semiring.Ops[V], i int, s *spa[V], dstCol []int32, dstVal []V) int

// numericRowFor returns the numeric-phase row kernel for ops:
// a monomorphic specialization when the pair carries a kernel hint and
// V matches, the generic closure-calling row otherwise.
func numericRowFor[V any](ops semiring.Ops[V]) numericRowFunc[V] {
	if ops.Kernel() == semiring.KernelPlusTimesF64 {
		if fn, ok := any(numericRowFunc[float64](numericRowPlusTimesF64)).(numericRowFunc[V]); ok {
			return fn
		}
	}
	return numericRow[V]
}

// numericRowPlusTimesF64 is numericRow monomorphized for +.* over
// float64: acc[j] += av*bv with v != 0 pruning, arithmetic fully
// inlined. Fold order and emission are identical to the generic path.
func numericRowPlusTimesF64(a, b *CSR[float64], _ semiring.Ops[float64], i int, s *spa[float64], dstCol []int32, dstVal []float64) int {
	if lo, hi := a.rowPtr[i], a.rowPtr[i+1]; hi-lo == 1 {
		// Single inner key: av × (row k of b), already column-sorted.
		k := a.colIdx[lo]
		av := a.val[lo]
		n := 0
		for q := b.rowPtr[k]; q < b.rowPtr[k+1]; q++ {
			if v := av * b.val[q]; v != 0 {
				dstCol[n] = b.colIdx[q]
				dstVal[n] = v
				n++
			}
		}
		return n
	}
	s.current++
	s.touched = s.touched[:0]
	bPtr, bCol, bVal := b.rowPtr, b.colIdx, b.val
	acc, stamp, cur := s.acc, s.stamp, s.current
	touched := s.touched
	var minJ, maxJ int32 = -1, -1
	for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ { // ascending k: Definition I.3 fold order
		k := a.colIdx[p]
		av := a.val[p]
		for q := bPtr[k]; q < bPtr[k+1]; q++ {
			j := bCol[q]
			prod := av * bVal[q]
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
				acc[j] += prod
			}
		}
	}
	s.touched, s.minJ, s.maxJ = touched, minJ, maxJ
	return emitPlusTimesF64(s, dstCol, dstVal)
}

// emitPlusTimesF64 is spa.emit with the zero test inlined.
func emitPlusTimesF64(s *spa[float64], dstCol []int32, dstVal []float64) int {
	t := len(s.touched)
	if t == 0 {
		return 0
	}
	acc, stamp, cur := s.acc, s.stamp, s.current
	n := 0
	if t > 1 && scanBeatsSort(int(s.maxJ-s.minJ)+1, t) {
		for j := s.minJ; j <= s.maxJ; j++ {
			if stamp[j] == cur {
				if v := acc[j]; v != 0 {
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
		if v := acc[j]; v != 0 {
			dstCol[n] = j
			dstVal[n] = v
			n++
		}
	}
	return n
}
