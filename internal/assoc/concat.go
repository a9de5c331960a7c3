package assoc

import (
	"errors"
	"fmt"

	"adjarray/internal/keys"
	"adjarray/internal/sparse"
)

// Gathering a partitioned array. An array split by ROW key — a store
// sharded by source vertex — holds row-disjoint parts, and putting
// disjoint rows back side by side is a concatenation, not an element-wise
// ⊕: no cell has two contributions. One sweep per side aligns the parts'
// key sets (keys.UnionAll), one kernel copies every stored row once into
// its place (sparse.ConcatRows), and the disjointness this rests on is
// checked there, not assumed.

// ConcatRows gathers row-disjoint parts into one array over the union of
// their row key sets and the union of their column key sets. A row stored
// by two parts is refused, the error naming its key and the two parts
// (it wraps the *sparse.RowConflictError). One part is returned as it is.
func ConcatRows[V any](parts []*Array[V]) (*Array[V], error) {
	rowSets, colSets := make([]*keys.Set, len(parts)), make([]*keys.Set, len(parts))
	for k, p := range parts {
		rowSets[k], colSets[k] = p.rows, p.cols
	}
	rows, rowPos, err := keys.UnionAll(rowSets)
	if err != nil {
		return nil, fmt.Errorf("assoc: ConcatRows row keys: %w", err)
	}
	cols, colPos, err := keys.UnionAll(colSets)
	if err != nil {
		return nil, fmt.Errorf("assoc: ConcatRows column keys: %w", err)
	}
	mats := make([]*sparse.CSR[V], len(parts))
	for k, p := range parts {
		mats[k] = p.mat
	}
	m, err := sparse.ConcatRows(mats, rowPos, colPos, rows.Len(), cols.Len())
	if err != nil {
		var rc *sparse.RowConflictError
		if errors.As(err, &rc) {
			return nil, fmt.Errorf("assoc: row %q is stored by part %d and by part %d, and parts must own disjoint rows: %w", rows.Key(rc.Row), rc.First, rc.Second, err)
		}
		return nil, err
	}
	if len(parts) == 1 && m == mats[0] && rows == parts[0].rows && cols == parts[0].cols {
		return parts[0], nil
	}
	return &Array[V]{rows: rows, cols: cols, mat: m}, nil
}
