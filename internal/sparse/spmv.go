package sparse

// Sparse-vector × matrix kernels: the inner step of the GraphBLAS-style
// algorithm iterations (frontier' = frontier ⊕.⊗ A) run on integer ids
// over CSR storage, with no key-set or map work per step.
//
// Both kernels compute the same product y = x ⊕.⊗ m and produce
// identical results: per output j the contributions x(u) ⊗ m(u,j) fold
// in ascending u order — the Definition I.3 ordered ⊕ over the shared
// dimension, matching every SpGEMM variant in this package — and the
// fold seeds from the first contribution (FoldAdd semantics), not from
// an injected Zero. They differ only in traversal:
//
//   - SpMSpVPush scatters each frontier row outward (gather-free); cost
//     is proportional to the edges leaving the frontier, the right shape
//     for sparse frontiers.
//   - SpMVPull walks the TRANSPOSED matrix row by row, gathering each
//     output's in-contributions sequentially; cost is one scan of the
//     transpose, the right shape once the frontier is dense.
//
// Callers own the dense accumulator (acc), the per-step occupancy mask
// (hit), and the touched-id list, so steady-state iteration allocates
// nothing: clear hit via touched after merging, reuse the slices.

// SpMSpVPush accumulates y ⊕= x(u) ⊗ m(u,·) for every frontier entry
// (xIDs[i], xVals[i]), with xIDs strictly ascending row ids of m. acc
// and hit must have length m.Cols() with hit false everywhere touched is
// empty; ids newly occupied are appended to touched (unsorted) and
// returned.
func SpMSpVPush[V any](m *CSR[V], xIDs []int32, xVals []V, add, mul func(V, V) V, acc []V, hit []bool, touched []int32) []int32 {
	for i, u := range xIDs {
		xv := xVals[i]
		cols, vals := m.Row(int(u))
		for p, j := range cols {
			pv := mul(xv, vals[p])
			if !hit[j] {
				hit[j] = true
				acc[j] = pv
				touched = append(touched, j)
			} else {
				acc[j] = add(acc[j], pv)
			}
		}
	}
	return touched
}

// SpMVPull accumulates the same product from the transpose t = mᵀ: for
// each output j (a row of t), the stored (u, w) pairs are gathered in
// ascending u and folded where xMask[u] is set, reading values from the
// dense x. acc/hit/touched follow the SpMSpVPush contract (touched comes
// back ascending).
func SpMVPull[V any](t *CSR[V], x []V, xMask []bool, add, mul func(V, V) V, acc []V, hit []bool, touched []int32) []int32 {
	for j := int32(0); int(j) < t.rows; j++ {
		cols, vals := t.Row(int(j))
		for p, u := range cols {
			if !xMask[u] {
				continue
			}
			pv := mul(x[u], vals[p])
			if !hit[j] {
				hit[j] = true
				acc[j] = pv
				touched = append(touched, j)
			} else {
				acc[j] = add(acc[j], pv)
			}
		}
	}
	return touched
}
