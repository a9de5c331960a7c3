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
	return concatRows(parts, rows, cols, rowPos, colPos)
}

// ConcatRowsSquare is ConcatRows into the square space a graph kernel
// runs in: both sides span one vertex set, the union of every part's row
// AND column keys. With one part that is an embedding — values shared,
// never copied, and a part already square over one key set comes back
// with its own matrix.
func ConcatRowsSquare[V any](parts []*Array[V]) (*Array[V], error) {
	sets := make([]*keys.Set, 0, 2*len(parts))
	for _, p := range parts {
		sets = append(sets, p.rows, p.cols)
	}
	verts, pos, err := keys.UnionAll(sets)
	if err != nil {
		return nil, fmt.Errorf("assoc: ConcatRowsSquare vertex keys: %w", err)
	}
	rowPos, colPos := make([][]int32, len(parts)), make([][]int32, len(parts))
	for k := range parts {
		rowPos[k], colPos[k] = pos[2*k], pos[2*k+1]
	}
	return concatRows(parts, verts, verts, rowPos, colPos)
}

func concatRows[V any](parts []*Array[V], rows, cols *keys.Set, rowPos, colPos [][]int32) (*Array[V], error) {
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
