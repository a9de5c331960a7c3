package sparse

import "fmt"

// Validate re-checks the CSR structural invariants on an existing
// matrix: consistent slice lengths, monotone row pointers, and in-bounds
// strictly-increasing column indices per row. NewCSR enforces these at
// assembly time; Validate lets downstream consumers (the conformance
// harness, debug assertions) verify that a kernel's OUTPUT still honors
// them — a corrupted structure can make two matrices compare equal
// entry-wise while misbehaving under iteration or further multiplication.
func (m *CSR[V]) Validate() error {
	_, err := m.validate()
	return err
}

// validate is Validate, also reporting whether every row holds exactly
// one entry — known for free once rowPtr has been walked.
func (m *CSR[V]) validate() (unitRows bool, err error) {
	if m.rows < 0 || m.cols < 0 {
		return false, fmt.Errorf("sparse: negative dimensions %d×%d", m.rows, m.cols)
	}
	if len(m.rowPtr) != m.rows+1 {
		return false, fmt.Errorf("sparse: rowPtr length %d, want %d", len(m.rowPtr), m.rows+1)
	}
	if m.rowPtr[0] != 0 || int(m.rowPtr[m.rows]) != len(m.colIdx) || len(m.colIdx) != len(m.val) {
		return false, fmt.Errorf("sparse: inconsistent nnz: rowPtr[0]=%d rowPtr[end]=%d colIdx=%d val=%d",
			m.rowPtr[0], m.rowPtr[m.rows], len(m.colIdx), len(m.val))
	}
	// Monotonicity first, in full: the entry scan below indexes colIdx
	// through rowPtr windows, which is only safe once every window is
	// known to lie inside [0, nnz].
	unitRows = true
	for i := 0; i < m.rows; i++ {
		if m.rowPtr[i] > m.rowPtr[i+1] {
			return false, fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
		unitRows = unitRows && int(m.rowPtr[i+1]) == i+1
	}
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if m.colIdx[p] < 0 || int(m.colIdx[p]) >= m.cols {
				return false, fmt.Errorf("sparse: column %d out of range [0,%d) at row %d", m.colIdx[p], m.cols, i)
			}
			if p > m.rowPtr[i] && m.colIdx[p-1] >= m.colIdx[p] {
				return false, fmt.Errorf("sparse: columns not strictly increasing in row %d", i)
			}
		}
	}
	return unitRows, nil
}
