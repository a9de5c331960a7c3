package sparse

// The sparse-vector × matrix kernel: the inner step of the
// GraphBLAS-style algorithm iterations (frontier' = frontier ⊕.⊗ A) run
// on integer ids over CSR storage, with no key-set or map work per step.
//
// SpMSpVPush computes y = x ⊕.⊗ m by scattering each frontier row of m
// outward, reading m by rows only: no transpose is built. Its cost is
// proportional to the edges leaving the frontier. Per output j the
// contributions x(u) ⊗ m(u,j) fold in ascending u order, because the
// frontier is ascending — the Definition I.3 ordered ⊕ over the shared
// dimension, matching every SpGEMM variant in this package — and the
// fold seeds from the first contribution, not from an injected Zero.
// algo.Graph runs every kernel on it, or on the same row-wise scatter
// inlined: a Graph is its forward pattern, 4 bytes per stored entry, and
// 12 once a weighted kernel has laid values on.
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
