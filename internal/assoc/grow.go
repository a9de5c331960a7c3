package assoc

import (
	"fmt"

	"adjarray/internal/keys"
	"adjarray/internal/sparse"
)

// Growing an array's key sets. A maintained adjacency view ⊕-folds small
// delta products into a large accumulator whose key sets grow; it does so
// on the matrices, through the position maps a key-set union yields
// (sparse.Gather, driven by internal/stream), never by re-sorting triples
// through the string-keyed Reindex path.

// EmbedInto returns a with its key sets grown to the given supersets
// (every existing key must appear in the new sets, in the same relative
// order they already have — supersets always satisfy this). It is the
// fast integer-index form of Reindex for the grow-only case: values are
// never copied, shared backing is reused where possible, and positions
// resolve through the supersets' cached reverse indexes — O(len(a's
// keys)) when the targets are long-lived sets. Kept as the tests'
// reference (embed, then merge).
func (a *Array[V]) EmbedInto(rows, cols *keys.Set) (*Array[V], error) {
	rowPos, ok := a.rows.PositionsIn(rows)
	if !ok {
		return nil, fmt.Errorf("assoc: EmbedInto target rows missing keys of a")
	}
	colPos, ok := a.cols.PositionsIn(cols)
	if !ok {
		return nil, fmt.Errorf("assoc: EmbedInto target cols missing keys of a")
	}
	m, err := sparse.Embed(a.mat, rowPos, colPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: rows, cols: cols, mat: m}, nil
}
